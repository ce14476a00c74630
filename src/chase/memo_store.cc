#include "chase/memo_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "chase/checkpoint.h"
#include "util/crc32.h"

namespace sqleq {
namespace {

// v2: trace lines hold step deltas (chase/checkpoint.h); a v1 record fails
// SplitPayload and its outcome is chased again.
constexpr char kRecordHeader[] = "sqleq-memo-record v2";
constexpr size_t kFrameHeaderBytes = 8;
/// Sanity cap on a single payload; a larger length field is treated as a
/// torn frame.
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

uint32_t LoadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

void StoreU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::string BuildPayload(std::string_view key, std::string_view body) {
  std::string payload;
  payload.reserve(sizeof(kRecordHeader) + key.size() + body.size() + 8);
  payload += kRecordHeader;
  payload += "\nkey ";
  payload += EscapeField(key);
  payload += '\n';
  payload += body;
  return payload;
}

/// Splits a checksum-valid payload into key and body. False on an envelope
/// this version does not understand (version skew; treated as corrupt).
bool SplitPayload(std::string_view payload, std::string* key,
                  std::string_view* body) {
  size_t nl = payload.find('\n');
  if (nl == std::string_view::npos || payload.substr(0, nl) != kRecordHeader) {
    return false;
  }
  std::string_view rest = payload.substr(nl + 1);
  if (!rest.starts_with("key ")) return false;
  rest.remove_prefix(4);
  nl = rest.find('\n');
  if (nl == std::string_view::npos) return false;
  Result<std::string> unescaped = UnescapeField(rest.substr(0, nl));
  if (!unescaped.ok()) return false;
  *key = std::move(unescaped).value();
  *body = rest.substr(nl + 1);
  return true;
}

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status WriteFull(int fd, const char* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("MemoStore: write");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<MemoStore>> MemoStore::Open(MemoStoreOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("MemoStore: --memo-dir is empty");
  }
  struct stat st;
  if (::stat(options.dir.c_str(), &st) != 0) {
    if (errno != ENOENT) return ErrnoStatus("MemoStore: stat " + options.dir);
    if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoStatus("MemoStore: mkdir " + options.dir);
    }
  } else if (!S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("MemoStore: not a directory: " + options.dir);
  }
  std::unique_ptr<MemoStore> store(new MemoStore(std::move(options)));
  DIR* dir = ::opendir(store->options_.dir.c_str());
  if (dir == nullptr) {
    return ErrnoStatus("MemoStore: opendir " + store->options_.dir);
  }
  std::vector<uint64_t> seqs;
  while (struct dirent* ent = ::readdir(dir)) {
    unsigned long long seq = 0;
    int consumed = 0;
    if (std::sscanf(ent->d_name, "memo-%llu.seg%n", &seq, &consumed) == 1 &&
        consumed > 0 &&
        static_cast<size_t>(consumed) == std::strlen(ent->d_name)) {
      seqs.push_back(seq);
    }
  }
  ::closedir(dir);
  std::sort(seqs.begin(), seqs.end());
  {
    std::lock_guard<std::mutex> lock(store->mu_);
    for (uint64_t seq : seqs) store->ScanSegmentLocked(seq);
    store->recovered_ = store->index_.size();
    // Recovery never appends to an existing segment: a torn tail must stay
    // a tail, so the next Put starts a fresh segment past every old one.
    store->next_seq_ = seqs.empty() ? 1 : seqs.back() + 1;
    if (store->options_.metrics != nullptr) {
      if (store->recovered_ > 0) {
        store->options_.metrics->counter(metric::kMemoDiskRecovered)
            .Add(store->recovered_);
      }
      if (store->corrupt_records_ > 0) {
        store->options_.metrics->counter(metric::kMemoDiskCorrupt)
            .Add(store->corrupt_records_);
      }
    }
  }
  return store;
}

MemoStore::~MemoStore() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_fd_ >= 0) ::close(active_fd_);
}

std::string MemoStore::SegmentPath(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "memo-%08llu.seg",
                static_cast<unsigned long long>(seq));
  return options_.dir + "/" + name;
}

void MemoStore::ScanSegmentLocked(uint64_t seq) {
  std::string path = SegmentPath(seq);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  std::string data;
  char buf[1u << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  file_bytes_[seq] = data.size();
  total_bytes_ += data.size();
  size_t off = 0;
  while (off < data.size()) {
    if (data.size() - off < kFrameHeaderBytes) {
      ++corrupt_records_;  // torn frame header
      break;
    }
    uint32_t len = LoadU32(data.data() + off);
    uint32_t crc = LoadU32(data.data() + off + 4);
    if (len > kMaxPayloadBytes ||
        len > data.size() - off - kFrameHeaderBytes) {
      ++corrupt_records_;  // torn length field or truncated payload
      break;
    }
    std::string_view payload(data.data() + off + kFrameHeaderBytes, len);
    if (Crc32(payload) != crc) {
      ++corrupt_records_;  // torn payload; everything after is suspect
      break;
    }
    std::string key;
    std::string_view body;
    if (SplitPayload(payload, &key, &body)) {
      // Later records supersede earlier ones (last-writer-wins).
      index_[std::move(key)] =
          Location{seq, off + kFrameHeaderBytes, len, crc};
    } else {
      ++corrupt_records_;  // framing intact, envelope unintelligible
    }
    off += kFrameHeaderBytes + len;
  }
}

Result<std::string> MemoStore::ReadPayloadLocked(const Location& loc) {
  std::string path = SegmentPath(loc.seq);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("MemoStore: open " + path);
  std::string payload(loc.length, '\0');
  size_t done = 0;
  while (done < payload.size()) {
    ssize_t n = ::pread(fd, payload.data() + done, payload.size() - done,
                        static_cast<off_t>(loc.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoStatus("MemoStore: pread " + path);
    }
    if (n == 0) {
      ::close(fd);
      return Status::Internal("MemoStore: short read from " + path);
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return payload;
}

Result<std::optional<std::string>> MemoStore::Get(
    std::string_view key, MetricsRegistry* call_metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(std::string(key));
  if (it == index_.end()) return std::optional<std::string>{};
  if (options_.faults != nullptr) {
    SQLEQ_RETURN_IF_ERROR(options_.faults->Hit(fault_sites::kMemoDiskRead));
  }
  SQLEQ_ASSIGN_OR_RETURN(std::string payload, ReadPayloadLocked(it->second));
  std::string found_key;
  std::string_view body;
  if (Crc32(payload) != it->second.crc ||
      !SplitPayload(payload, &found_key, &body) || found_key != key) {
    ++corrupt_records_;
    if (options_.metrics != nullptr) {
      options_.metrics->counter(metric::kMemoDiskCorrupt).Add();
    }
    index_.erase(it);
    return std::optional<std::string>{};
  }
  ++hits_;
  if (call_metrics != nullptr) {
    call_metrics->counter(metric::kMemoDiskHits).Add();
  }
  return std::optional<std::string>(std::string(body));
}

Status MemoStore::Put(std::string_view key, std::string_view body,
                      MetricsRegistry* call_metrics) {
  std::string payload = BuildPayload(key, body);
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("MemoStore: record exceeds 64 MiB");
  }
  uint32_t crc = Crc32(payload);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  StoreU32(static_cast<uint32_t>(payload.size()), &frame);
  StoreU32(crc, &frame);
  frame += payload;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(std::string(key));
  if (it != index_.end() && it->second.length == payload.size() &&
      it->second.crc == crc) {
    // Byte-identical record already on disk — e.g. the LRU eviction of an
    // entry that was written through at insert time.
    return Status::OK();
  }
  if (active_poisoned_) RotateLocked();
  if (active_fd_ < 0) {
    active_seq_ = next_seq_++;
    std::string path = SegmentPath(active_seq_);
    active_fd_ =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (active_fd_ < 0) return ErrnoStatus("MemoStore: open " + path);
    active_bytes_ = 0;
    file_bytes_[active_seq_] = 0;
  }
  if (options_.faults != nullptr) {
    FaultInjector::WriteFault fault =
        options_.faults->HitWrite(fault_sites::kMemoDiskWrite, frame.size());
    if (!fault.status.ok()) return fault.status;
    if (fault.short_bytes.has_value()) {
      // Persist the torn prefix exactly as a crash mid-append would, then
      // poison the segment so the next Put rotates past the tear.
      size_t n = *fault.short_bytes;
      Status written = WriteFull(active_fd_, frame.data(), n);
      active_bytes_ += n;
      file_bytes_[active_seq_] = active_bytes_;
      total_bytes_ += n;
      active_poisoned_ = true;
      if (!written.ok()) return written;
      return Status::Internal("injected short write at memo.disk.write (" +
                              std::to_string(n) + "/" +
                              std::to_string(frame.size()) + " bytes)");
    }
  }
  Status written = WriteFull(active_fd_, frame.data(), frame.size());
  if (!written.ok()) {
    // Unknown how much landed; resync sizes from the file and poison.
    struct stat st;
    if (::fstat(active_fd_, &st) == 0) {
      total_bytes_ += static_cast<size_t>(st.st_size) - active_bytes_;
      active_bytes_ = static_cast<size_t>(st.st_size);
      file_bytes_[active_seq_] = active_bytes_;
    }
    active_poisoned_ = true;
    return written;
  }
  active_bytes_ += frame.size();
  file_bytes_[active_seq_] = active_bytes_;
  total_bytes_ += frame.size();
  index_[std::string(key)] =
      Location{active_seq_, active_bytes_ - payload.size(),
               static_cast<uint32_t>(payload.size()), crc};
  ++writes_;
  if (call_metrics != nullptr) {
    call_metrics->counter(metric::kMemoDiskWrites).Add();
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter(metric::kMemoDiskBytes).Add(frame.size());
  }
  Status sync = Status::OK();
  if (options_.fsync_each_put) {
    if (options_.faults != nullptr) {
      sync = options_.faults->Hit(fault_sites::kMemoDiskFsync);
    }
    if (sync.ok() && ::fsync(active_fd_) != 0) {
      sync = ErrnoStatus("MemoStore: fsync");
    }
    // The record is appended and indexed either way; a failed barrier only
    // weakens durability, which the caller may surface or ignore.
  }
  if (active_bytes_ >= options_.segment_bytes) RotateLocked();
  if (options_.max_disk_bytes > 0 && total_bytes_ > options_.max_disk_bytes) {
    CompactLocked();
  }
  return sync;
}

void MemoStore::RotateLocked() {
  if (active_fd_ >= 0) {
    ::close(active_fd_);
    active_fd_ = -1;
  }
  active_bytes_ = 0;
  active_poisoned_ = false;
}

void MemoStore::CompactLocked() {
  ++compactions_;
  if (options_.metrics != nullptr) {
    options_.metrics->counter(metric::kMemoDiskCompactions).Add();
  }
  RotateLocked();

  // Live records in age order (segment sequence, then file offset).
  std::vector<std::pair<std::string, Location>> live(index_.begin(),
                                                     index_.end());
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.second.seq != b.second.seq ? a.second.seq < b.second.seq
                                        : a.second.offset < b.second.offset;
  });

  // Keep newest-first while under budget; aim below the cap so the next
  // append does not immediately re-trigger compaction. The newest record
  // always survives.
  size_t keep_budget =
      options_.max_disk_bytes - options_.max_disk_bytes / 4;
  std::vector<std::pair<std::string, std::string>> kept;  // newest first
  size_t kept_bytes = 0;
  for (auto it = live.rbegin(); it != live.rend(); ++it) {
    Result<std::string> payload = ReadPayloadLocked(it->second);
    if (!payload.ok() || Crc32(*payload) != it->second.crc) {
      ++corrupt_records_;
      if (options_.metrics != nullptr) {
        options_.metrics->counter(metric::kMemoDiskCorrupt).Add();
      }
      continue;
    }
    size_t frame_bytes = payload->size() + kFrameHeaderBytes;
    if (!kept.empty() && kept_bytes + frame_bytes > keep_budget) {
      ++dropped_;
      continue;
    }
    kept_bytes += frame_bytes;
    kept.emplace_back(it->first, std::move(*payload));
  }

  std::map<uint64_t, uint64_t> old_files = std::move(file_bytes_);
  file_bytes_.clear();
  index_.clear();
  total_bytes_ = 0;

  // Rewrite survivors oldest-first so record order still reflects age.
  int fd = -1;
  uint64_t seq = 0;
  uint64_t bytes = 0;
  auto close_segment = [&] {
    if (fd < 0) return;
    if (options_.fsync_each_put) ::fsync(fd);
    ::close(fd);
    fd = -1;
  };
  for (auto it = kept.rbegin(); it != kept.rend(); ++it) {
    const std::string& payload = it->second;
    std::string frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    StoreU32(static_cast<uint32_t>(payload.size()), &frame);
    StoreU32(Crc32(payload), &frame);
    frame += payload;
    if (fd < 0) {
      seq = next_seq_++;
      std::string path = SegmentPath(seq);
      fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
      if (fd < 0) break;  // disk trouble: survivors past here are dropped
      bytes = 0;
      file_bytes_[seq] = 0;
    }
    if (!WriteFull(fd, frame.data(), frame.size()).ok()) {
      close_segment();
      break;
    }
    bytes += frame.size();
    file_bytes_[seq] = bytes;
    total_bytes_ += frame.size();
    index_[it->first] =
        Location{seq, bytes - payload.size(),
                 static_cast<uint32_t>(payload.size()), Crc32(payload)};
    if (bytes >= options_.segment_bytes) close_segment();
  }
  close_segment();

  for (const auto& [old_seq, size] : old_files) {
    (void)size;
    ::unlink(SegmentPath(old_seq).c_str());
  }
}

MemoStore::Stats MemoStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.entries = index_.size();
  out.segments = file_bytes_.size();
  out.disk_bytes = total_bytes_;
  out.recovered = recovered_;
  out.corrupt_records = corrupt_records_;
  out.dropped = dropped_;
  out.compactions = compactions_;
  out.hits = hits_;
  out.writes = writes_;
  return out;
}

std::string SerializeChaseOutcomeBody(const ChaseOutcome& outcome) {
  std::string body;
  body += "failed ";
  body += outcome.failed ? '1' : '0';
  body += "\nresult ";
  body += SerializeQuery(outcome.result);
  body += '\n';
  AppendTraceLines(outcome.trace, &body);
  body += "end\n";
  return body;
}

Result<ChaseOutcome> ParseChaseOutcomeBody(std::string_view body) {
  std::optional<bool> failed;
  std::optional<ConjunctiveQuery> result;
  std::vector<ChaseStepRecord> trace;
  SQLEQ_RETURN_IF_ERROR(ReadKeyedLines(
      body, "memo record",
      {{"failed",
        [&](std::string_view value) {
          if (value != "0" && value != "1") {
            return Status::InvalidArgument("memo record: bad failed flag '" +
                                           std::string(value) + "'");
          }
          failed = value == "1";
          return Status::OK();
        }},
       {"result",
        [&](std::string_view value) -> Status {
          SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, DeserializeQuery(value));
          result = std::move(q);
          return Status::OK();
        }},
       {"trace", [&](std::string_view value) -> Status {
          SQLEQ_ASSIGN_OR_RETURN(ChaseStepRecord record, DeserializeStepRecord(value));
          trace.push_back(std::move(record));
          return Status::OK();
        }}}));
  if (!failed.has_value() || !result.has_value()) {
    return Status::InvalidArgument("memo record: truncated chase outcome body");
  }
  return ChaseOutcome{std::move(*result), std::move(trace), *failed};
}

}  // namespace sqleq
