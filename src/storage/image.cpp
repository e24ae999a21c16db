#include "storage/image.hpp"

#include "util/crc64.hpp"
#include "util/serialize.hpp"
#include "util/threadpool.hpp"

namespace ckpt::storage {

using util::Deserializer;
using util::Serializer;

const char* to_string(ImageKind kind) {
  return kind == ImageKind::kFull ? "full" : "incremental";
}

std::uint64_t CheckpointImage::payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& segment : segments) {
    for (const auto& page : segment.pages) total += page.data.size();
  }
  for (const auto& file : files) {
    if (file.contents.has_value()) total += file.contents->size();
  }
  return total;
}

std::uint64_t CheckpointImage::page_count() const {
  std::uint64_t total = 0;
  for (const auto& segment : segments) total += segment.pages.size();
  return total;
}

namespace {

// Encoders are written against a generic sink so the same code drives the
// byte emitter (Serializer), the exact-size pass (SizeCounter) and the
// sharded parallel path — they cannot drift apart.

template <typename Sink>
void encode_vma(Sink& s, const sim::Vma& vma) {
  s.put(vma.first_page);
  s.put(vma.page_count);
  s.put(vma.prot);
  s.put(vma.kind);
  s.put_string(vma.name);
}

sim::Vma decode_vma(Deserializer& d) {
  sim::Vma vma;
  vma.first_page = d.get<sim::PageNum>();
  vma.page_count = d.get<std::uint64_t>();
  vma.prot = d.get<std::uint8_t>();
  vma.kind = d.get<sim::VmaKind>();
  vma.name = d.get_string();
  return vma;
}

template <typename Sink>
void encode_regs(Sink& s, const sim::Registers& regs) {
  s.put(regs.pc);
  s.put(regs.sp);
  for (std::uint64_t g : regs.gpr) s.put(g);
}

/// Everything preceding the segment payloads, including the segment-count
/// prefix — the body is prelude ++ segment* ++ trailer.
template <typename Sink>
void encode_prelude(Sink& s, const CheckpointImage& image) {
  s.put(image.kind);
  s.put(image.sequence);
  s.put(image.parent_sequence);
  s.put(image.pid);
  s.put_string(image.process_name);
  s.put_string(image.hostname);
  s.put(image.taken_at);
  s.put_string(image.guest.type_name);
  s.put_bytes(image.guest.config);

  s.put_vector(image.threads, [](auto& s2, const ThreadImage& t) {
    s2.put(t.tid);
    encode_regs(s2, t.regs);
  });

  s.template put<std::uint64_t>(image.segments.size());
}

template <typename Sink>
void encode_segment(Sink& s, const MemorySegmentImage& seg) {
  encode_vma(s, seg.vma);
  s.put_vector(seg.pages, [](auto& s2, const PageImage& page) {
    s2.put(page.page);
    s2.put(page.offset);
    s2.put_bytes(page.data);
  });
}

template <typename Sink>
void encode_trailer(Sink& s, const CheckpointImage& image) {
  s.put(image.brk);
  s.put(image.heap_base);
  s.put(image.mmap_next);
  s.put(image.sig_pending);
  s.put(image.sig_mask);
  s.put_vector(image.sig_dispositions, [](auto& s2, std::uint8_t d) { s2.put(d); });

  s.put_vector(image.files, [](auto& s2, const FileDescriptorImage& f) {
    s2.put(f.fd);
    s2.put(f.kind);
    s2.put_string(f.path);
    s2.put(f.offset);
    s2.put(f.flags);
    s2.template put<std::uint8_t>(f.was_deleted ? 1 : 0);
    s2.template put<std::uint8_t>(f.contents.has_value() ? 1 : 0);
    if (f.contents.has_value()) s2.put_bytes(*f.contents);
  });

  s.put_vector(image.bound_ports, [](auto& s2, std::uint16_t p) { s2.put(p); });
}

/// Exact body size (without the 12-byte version+CRC envelope).
std::uint64_t body_size(const CheckpointImage& image) {
  util::SizeCounter counter;
  encode_prelude(counter, image);
  for (const MemorySegmentImage& seg : image.segments) encode_segment(counter, seg);
  encode_trailer(counter, image);
  return counter.size();
}

constexpr std::size_t kEnvelopeBytes = sizeof(std::uint32_t) + sizeof(std::uint64_t);

sim::Registers decode_regs(Deserializer& d) {
  sim::Registers regs;
  regs.pc = d.get<std::uint64_t>();
  regs.sp = d.get<std::uint64_t>();
  for (std::uint64_t& g : regs.gpr) g = d.get<std::uint64_t>();
  return regs;
}

}  // namespace

void encode_image_prelude(Serializer& s, const CheckpointImage& image) {
  encode_prelude(s, image);
}

void encode_image_trailer(Serializer& s, const CheckpointImage& image) {
  encode_trailer(s, image);
}

void encode_image_vma(Serializer& s, const sim::Vma& vma) { encode_vma(s, vma); }

sim::Vma decode_image_vma(Deserializer& d) { return decode_vma(d); }

std::uint64_t decode_image_prelude(Deserializer& d, CheckpointImage& image) {
  image.kind = d.get<ImageKind>();
  image.sequence = d.get<std::uint64_t>();
  image.parent_sequence = d.get<std::uint64_t>();
  image.pid = d.get<sim::Pid>();
  image.process_name = d.get_string();
  image.hostname = d.get_string();
  image.taken_at = d.get<SimTime>();
  image.guest.type_name = d.get_string();
  image.guest.config = d.get_bytes();

  image.threads = d.get_vector<ThreadImage>([](Deserializer& d2) {
    ThreadImage t;
    t.tid = d2.get<sim::Tid>();
    t.regs = decode_regs(d2);
    return t;
  });

  return d.get_count();
}

void decode_image_trailer(Deserializer& d, CheckpointImage& image) {
  image.brk = d.get<sim::VAddr>();
  image.heap_base = d.get<sim::VAddr>();
  image.mmap_next = d.get<sim::VAddr>();
  image.sig_pending = d.get<std::uint64_t>();
  image.sig_mask = d.get<std::uint64_t>();
  image.sig_dispositions =
      d.get_vector<std::uint8_t>([](Deserializer& d2) { return d2.get<std::uint8_t>(); });

  image.files = d.get_vector<FileDescriptorImage>([](Deserializer& d2) {
    FileDescriptorImage f;
    f.fd = d2.get<sim::Fd>();
    f.kind = d2.get<sim::FileKind>();
    f.path = d2.get_string();
    f.offset = d2.get<std::uint64_t>();
    f.flags = d2.get<std::uint32_t>();
    f.was_deleted = d2.get<std::uint8_t>() != 0;
    if (d2.get<std::uint8_t>() != 0) f.contents = d2.get_bytes();
    return f;
  });

  image.bound_ports =
      d.get_vector<std::uint16_t>([](Deserializer& d2) { return d2.get<std::uint16_t>(); });
}

std::uint64_t CheckpointImage::serialized_size() const {
  return kEnvelopeBytes + body_size(*this);
}

std::vector<std::byte> CheckpointImage::serialize() const {
  const std::uint64_t body_bytes = body_size(*this);

  Serializer body(util::BufferPool::shared().acquire());
  body.reserve(body_bytes);
  encode_prelude(body, *this);
  for (const MemorySegmentImage& seg : segments) encode_segment(body, seg);
  encode_trailer(body, *this);

  // Envelope: version | crc(body) | body
  Serializer out;
  out.reserve(kEnvelopeBytes + body.size());
  out.put(kFormatVersion);
  out.put(util::crc64(body.bytes()));
  out.put_raw(body.bytes());
  util::BufferPool::shared().release(std::move(body).take());
  return std::move(out).take();
}

std::vector<std::byte> CheckpointImage::serialize(util::ThreadPool& pool) const {
  // Sharding only pays when there is more than one segment to fan out.
  if (segments.size() < 2 || pool.worker_count() < 2) return serialize();

  Serializer prelude(util::BufferPool::shared().acquire());
  encode_prelude(prelude, *this);
  Serializer trailer(util::BufferPool::shared().acquire());
  encode_trailer(trailer, *this);

  // Per-segment shards: encoded and CRC64'd concurrently, joined in segment
  // order below, so the result never depends on worker scheduling.
  struct Shard {
    std::vector<std::byte> bytes;
    std::uint64_t crc = 0;
  };
  std::vector<Shard> shards(segments.size());
  pool.run(segments.size(), [&](std::size_t i) {
    util::SizeCounter counter;
    encode_segment(counter, segments[i]);
    Serializer s(util::BufferPool::shared().acquire());
    s.reserve(counter.size());
    encode_segment(s, segments[i]);
    shards[i].bytes = std::move(s).take();
    shards[i].crc = util::crc64(shards[i].bytes);
  });

  std::uint64_t total = prelude.size() + trailer.size();
  std::uint64_t body_crc = util::crc64(prelude.bytes());
  for (const Shard& shard : shards) {
    total += shard.bytes.size();
    body_crc = util::crc64_combine(body_crc, shard.crc, shard.bytes.size());
  }
  body_crc = util::crc64(trailer.bytes(), body_crc);

  Serializer out;
  out.reserve(kEnvelopeBytes + total);
  out.put(kFormatVersion);
  out.put(body_crc);
  out.put_raw(prelude.bytes());
  util::BufferPool::shared().release(std::move(prelude).take());
  for (Shard& shard : shards) {
    out.put_raw(shard.bytes);
    util::BufferPool::shared().release(std::move(shard.bytes));
  }
  out.put_raw(trailer.bytes());
  util::BufferPool::shared().release(std::move(trailer).take());
  return std::move(out).take();
}

std::optional<std::uint64_t> CheckpointImage::envelope_crc(std::span<const std::byte> blob) {
  if (blob.size() < kEnvelopeBytes) return std::nullopt;
  Deserializer env(blob);
  env.get<std::uint32_t>();
  const auto body_crc = env.get<std::uint64_t>();
  return util::crc64_combine(util::crc64(blob.first(kEnvelopeBytes)), body_crc,
                             blob.size() - kEnvelopeBytes);
}

namespace {

/// The body of `blob` when its envelope holds (see CheckpointImage::loads),
/// nullopt otherwise.
std::optional<std::span<const std::byte>> checked_body(
    std::span<const std::byte> blob, std::optional<std::uint64_t> certificate) {
  if (blob.size() < kEnvelopeBytes) return std::nullopt;
  if (certificate.has_value() && CheckpointImage::envelope_crc(blob) != certificate) {
    return std::nullopt;
  }
  Deserializer env(blob);
  if (env.get<std::uint32_t>() != CheckpointImage::kFormatVersion) return std::nullopt;
  const auto body_crc = env.get<std::uint64_t>();
  const auto body = env.get_raw(env.remaining());
  if (util::crc64(body) != body_crc) return std::nullopt;
  return body;
}

/// Decode a checked body into `image`.  With `keep_pages` false the page
/// payloads are only stepped over: every count and length prefix is still
/// checked, and fails, exactly as the full decode checks it.
void decode_body(std::span<const std::byte> body, CheckpointImage& image, bool keep_pages) {
  Deserializer d(body);
  const std::uint64_t segment_count = decode_image_prelude(d, image);
  if (keep_pages) image.segments.reserve(segment_count);
  for (std::uint64_t i = 0; i < segment_count; ++i) {
    MemorySegmentImage seg;
    seg.vma = decode_vma(d);
    const std::uint64_t page_count = d.get_count();
    if (keep_pages) seg.pages.reserve(page_count);
    for (std::uint64_t p = 0; p < page_count; ++p) {
      PageImage page;
      page.page = d.get<sim::PageNum>();
      page.offset = d.get<std::uint32_t>();
      const auto data = d.get_raw(d.get<std::uint64_t>());
      if (!keep_pages) continue;
      page.data.assign(data.begin(), data.end());
      seg.pages.push_back(std::move(page));
    }
    if (keep_pages) image.segments.push_back(std::move(seg));
  }
  decode_image_trailer(d, image);
}

}  // namespace

CheckpointImage CheckpointImage::deserialize(std::span<const std::byte> bytes,
                                             std::optional<std::uint64_t> certificate) {
  const auto body = checked_body(bytes, certificate);
  if (!body.has_value()) {
    throw ImageCorrupt("checkpoint image fails its version or CRC check");
  }
  CheckpointImage image;
  decode_body(*body, image, /*keep_pages=*/true);
  return image;
}

bool CheckpointImage::loads(std::span<const std::byte> blob,
                            std::optional<std::uint64_t> certificate) {
  const auto body = checked_body(blob, certificate);
  if (!body.has_value()) return false;
  try {
    CheckpointImage scratch;
    decode_body(*body, scratch, /*keep_pages=*/false);
    return true;
  } catch (const util::SerializeError&) {
    return false;
  }
}

}  // namespace ckpt::storage
