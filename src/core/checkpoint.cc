#include "core/checkpoint.h"

#include <cstring>

#include "util/atomic_file.h"
#include "util/digest.h"

namespace sepriv {
namespace {

// "SEPRIVCK" as a little-endian u64, followed by a format version. Bumping
// the version invalidates old checkpoints instead of misreading them.
constexpr uint64_t kCheckpointMagic = 0x4b43564952504553ULL;
// v2: storage-mode word after config_digest, and a per-matrix precision tag
// selecting a float64 or (lossless, see header) float32 payload.
// v3: same layout; the engine's noise moved to the counter-based generator,
// so a v2 model resumed now would splice two noise streams into a run that
// neither binary produces from scratch.
// v4: preference-digest word after config_digest.
constexpr uint64_t kCheckpointVersion = 4;

// Per-matrix precision tags.
constexpr uint64_t kPrecisionF64 = 0;
constexpr uint64_t kPrecisionF32 = 1;

void AppendU64(std::string* buf, uint64_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  buf->append(bytes, sizeof(v));
}

void AppendDouble(std::string* buf, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(buf, bits);
}

void AppendMatrix(std::string* buf, const Matrix& m, uint64_t precision) {
  AppendU64(buf, m.rows());
  AppendU64(buf, m.cols());
  AppendU64(buf, m.dp_sanitized() ? 1 : 0);
  AppendU64(buf, precision);
  if (precision == kPrecisionF32) {
    // Lossless by contract: the trainer rounded every entry to float32
    // before saving, so the narrowing here drops no bits.
    const double* src = m.data();
    for (size_t i = 0; i < m.size(); ++i) {
      const float f = static_cast<float>(src[i]);
      char bytes[sizeof(f)];
      std::memcpy(bytes, &f, sizeof(f));
      buf->append(bytes, sizeof(f));
    }
  } else {
    buf->append(reinterpret_cast<const char*>(m.data()),
                m.size() * sizeof(double));
  }
}

/// Sequential reader over the serialized blob; any out-of-bounds read trips
/// the `ok` flag instead of touching memory, and the caller reports
/// corruption once at the end.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  uint64_t U64() {
    uint64_t v = 0;
    if (pos_ + sizeof(v) > size_) {
      ok_ = false;
      return 0;
    }
    std::memcpy(&v, data_ + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }

  double Double() {
    const uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool Bytes(void* out, size_t len) {
    if (pos_ + len > size_) {
      ok_ = false;
      return false;
    }
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return true;
  }

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

bool ReadMatrix(Reader* r, Matrix* m) {
  const uint64_t rows = r->U64();
  const uint64_t cols = r->U64();
  const uint64_t sanitized = r->U64();
  const uint64_t precision = r->U64();
  if (!r->ok()) return false;
  if (precision != kPrecisionF64 && precision != kPrecisionF32) return false;
  // Geometry sanity before the allocation: a corrupt header must not drive
  // a multi-gigabyte resize.
  constexpr uint64_t kMaxElems = uint64_t{1} << 34;
  if (cols == 0 || rows > kMaxElems / (cols == 0 ? 1 : cols)) return false;
  *m = Matrix(rows, cols);
  if (precision == kPrecisionF32) {
    double* dst = m->data();
    for (size_t i = 0; i < m->size(); ++i) {
      float f = 0.0f;
      if (!r->Bytes(&f, sizeof(f))) return false;
      dst[i] = static_cast<double>(f);  // exact widening
    }
  } else {
    if (!r->Bytes(m->data(), m->size() * sizeof(double))) return false;
  }
  if (sanitized != 0) m->MarkDpSanitized();
  return true;
}

}  // namespace

Status SaveCheckpoint(const TrainCheckpoint& ckpt, const std::string& path) {
  if (path.empty()) {
    return FailedPreconditionError("checkpoint path is empty");
  }
  const uint64_t precision =
      ckpt.storage == EmbeddingStorage::kFloat32 ? kPrecisionF32
                                                 : kPrecisionF64;
  const size_t elem_bytes =
      precision == kPrecisionF32 ? sizeof(float) : sizeof(double);
  std::string buf;
  // 17 header words, two 4-word matrix headers and the checksum word.
  buf.reserve(208 + (ckpt.w_in.size() + ckpt.w_out.size()) * elem_bytes +
              ckpt.loss_curve.size() * sizeof(double));
  AppendU64(&buf, kCheckpointMagic);
  AppendU64(&buf, kCheckpointVersion);
  AppendU64(&buf, ckpt.graph_fingerprint);
  AppendU64(&buf, ckpt.config_digest);
  AppendU64(&buf, ckpt.preference_digest);
  AppendU64(&buf, precision);
  AppendU64(&buf, ckpt.epochs_run);
  AppendU64(&buf, ckpt.accountant_steps);
  AppendDouble(&buf, ckpt.noise_multiplier);
  AppendDouble(&buf, ckpt.sampling_rate);
  for (uint64_t word : ckpt.rng.s) AppendU64(&buf, word);
  AppendDouble(&buf, ckpt.rng.cached);
  AppendU64(&buf, ckpt.rng.has_cached ? 1 : 0);
  AppendU64(&buf, ckpt.loss_curve.size());
  for (double loss : ckpt.loss_curve) AppendDouble(&buf, loss);
  AppendMatrix(&buf, ckpt.w_in, precision);
  AppendMatrix(&buf, ckpt.w_out, precision);
  // Whole-file checksum over everything above: a torn or rotted checkpoint
  // is rejected at load, never resumed from.
  AppendU64(&buf, FnvDigest(buf.data(), buf.size()));
  return WriteFileAtomic(path, buf.data(), buf.size(), "checkpoint");
}

Status LoadCheckpoint(const std::string& path, TrainCheckpoint* out) {
  std::string buf;
  SEPRIV_RETURN_IF_ERROR(ReadFileToString(path, &buf, "checkpoint"));
  if (buf.size() < 2 * sizeof(uint64_t)) {
    return CorruptionError(path + ": too short to be a checkpoint");
  }
  // Verify the trailing checksum before trusting any field.
  const size_t body = buf.size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, buf.data() + body, sizeof(stored));
  if (FnvDigest(buf.data(), body) != stored) {
    return CorruptionError(path + ": checksum mismatch (torn or rotted)");
  }

  Reader r(buf.data(), body);
  if (r.U64() != kCheckpointMagic) {
    return CorruptionError(path + ": bad magic");
  }
  if (r.U64() != kCheckpointVersion) {
    return CorruptionError(path + ": unsupported checkpoint version");
  }
  out->graph_fingerprint = r.U64();
  out->config_digest = r.U64();
  out->preference_digest = r.U64();
  const uint64_t storage_word = r.U64();
  if (storage_word != kPrecisionF64 && storage_word != kPrecisionF32) {
    return CorruptionError(path + ": unknown storage mode");
  }
  out->storage = storage_word == kPrecisionF32 ? EmbeddingStorage::kFloat32
                                               : EmbeddingStorage::kFloat64;
  out->epochs_run = r.U64();
  out->accountant_steps = r.U64();
  out->noise_multiplier = r.Double();
  out->sampling_rate = r.Double();
  for (uint64_t& word : out->rng.s) word = r.U64();
  out->rng.cached = r.Double();
  out->rng.has_cached = r.U64() != 0;
  const uint64_t curve_len = r.U64();
  if (!r.ok() || curve_len > body / sizeof(double)) {
    return CorruptionError(path + ": implausible loss-curve length");
  }
  out->loss_curve.resize(curve_len);
  for (double& loss : out->loss_curve) loss = r.Double();
  if (!ReadMatrix(&r, &out->w_in) || !ReadMatrix(&r, &out->w_out)) {
    return CorruptionError(path + ": malformed model matrices");
  }
  if (!r.ok() || r.pos() != body) {
    return CorruptionError(path + ": trailing or missing bytes");
  }
  return OkStatus();
}

}  // namespace sepriv
