// Immutable checksummed segment spill files — the on-disk form of one
// sorted Gcola segment once a fold past spill_depth lands it on storage.
//
// Layout:
//   [u64 magic "COSSEG01"]
//   block*   : [u32 crc32c(body)] [u32 count] count x { u64 k, u64 v, u8 f }
//   index    : per block { u64 offset, u32 count, u64 min_key, u64 max_key }
//   tail(32) : { u64 index_offset, u32 index_crc, u32 block_count,
//                u64 total_count, u64 magic }
//
// Entries are strictly ascending by key across the whole file; flags bit0
// marks a tombstone. The per-block (min_key, max_key) fences in the footer
// are the disk analogue of the in-memory fence-key vectors. The one reader
// is recovery, which streams every block once, in order, through a single
// reused decode buffer (SegmentReader::for_each_raw).
//
// The reader validates CRCs and structure before trusting a byte: the
// footer and index at open, each block's CRC, count, key order and fences
// as it streams. Any mismatch throws CorruptionError (never UB on a
// bit-flipped file).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "storage/env.hpp"

namespace costream::storage {

inline constexpr std::uint64_t kSegmentMagic = 0x434f535345473031ULL;  // COSSEG01

struct SegmentEntry {
  std::uint64_t key;
  std::uint64_t value;
  std::uint8_t flags;  // bit0 = tombstone
};

inline constexpr std::uint8_t kEntryTombstone = 1;

namespace seg_detail {

inline constexpr std::size_t kEntryBytes = 17;
inline constexpr std::size_t kBlockHeaderBytes = 8;
inline constexpr std::size_t kIndexEntryBytes = 28;
inline constexpr std::size_t kTailBytes = 32;

inline void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

inline std::uint32_t get_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint64_t get_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::string segment_name(std::uint64_t seg_id) {
  return "seg-" + std::to_string(seg_id) + ".seg";
}

}  // namespace seg_detail

/// Streams ascending entries into a segment file. finish() writes the
/// footer and fsyncs; the caller still owns making the NAME durable
/// (sync_dir) before referencing the file from the manifest.
class SegmentWriter {
 public:
  SegmentWriter(StorageEnv& env, const std::string& name,
                std::size_t block_bytes = 4096)
      : file_(env.create(name)),
        entries_per_block_(std::max<std::size_t>(
            1, (block_bytes - seg_detail::kBlockHeaderBytes) /
                   seg_detail::kEntryBytes)) {
    out_.resize(kWriteChunkBytes);
    std::memcpy(out_.data(), &kSegmentMagic, 8);
    out_len_ = 8;
  }

  /// Entries arrive in ascending key order. They are encoded in place
  /// into a staging buffer that reaches the file in large chunks — at
  /// spill rates, per-entry string appends and a write(2) pair per block
  /// cost more than the encode itself.
  void add(const SegmentEntry& e) {
    if (in_block_ == 0) {
      begin_block();
      block_min_ = e.key;
    }
    std::memcpy(p_, &e.key, 8);
    std::memcpy(p_ + 8, &e.value, 8);
    p_[16] = static_cast<char>(e.flags);
    p_ += seg_detail::kEntryBytes;
    block_max_ = e.key;
    ++in_block_;
    ++total_count_;
    if (in_block_ >= entries_per_block_) end_block();
  }

  /// Flush the last block, write index + tail, fsync the file.
  void finish() {
    end_block();
    const std::uint64_t index_offset = flushed_ + out_len_;
    std::string index;
    index.reserve(index_.size() * seg_detail::kIndexEntryBytes);
    for (const auto& b : index_) {
      seg_detail::put_u64(index, b.offset);
      seg_detail::put_u32(index, b.count);
      seg_detail::put_u64(index, b.min_key);
      seg_detail::put_u64(index, b.max_key);
    }
    std::string tail;
    seg_detail::put_u64(tail, index_offset);
    seg_detail::put_u32(tail, crc32c(index.data(), index.size()));
    seg_detail::put_u32(tail, static_cast<std::uint32_t>(index_.size()));
    seg_detail::put_u64(tail, total_count_);
    seg_detail::put_u64(tail, kSegmentMagic);
    if (out_len_ > 0) file_->append(out_.data(), out_len_);
    out_len_ = 0;
    file_->append(index.data(), index.size());
    file_->append(tail.data(), tail.size());
    file_->sync();
  }

  std::uint64_t total_count() const noexcept { return total_count_; }

 private:
  struct BlockMeta {
    std::uint64_t offset;
    std::uint32_t count;
    std::uint64_t min_key;
    std::uint64_t max_key;
  };

  // Staged bytes reach the file in chunks of this size (plus whatever
  // finish() still holds) — one write(2) per ~16 blocks at the default
  // block size instead of two per block.
  static constexpr std::size_t kWriteChunkBytes = 256u << 10;

  /// Open a block: header placeholder plus room for a full block's
  /// entries. `p_` walks the entry region (stable until end_block — no
  /// resize happens while a block is open).
  void begin_block() {
    block_start_ = out_len_;
    const std::size_t need = seg_detail::kBlockHeaderBytes +
                             entries_per_block_ * seg_detail::kEntryBytes;
    if (out_len_ + need > out_.size()) {
      out_.resize(std::max(out_len_ + need, out_.size() * 2));
    }
    p_ = out_.data() + block_start_ + seg_detail::kBlockHeaderBytes;
  }

  /// Close the open block: trim to the entries actually written, patch
  /// the CRC/count header, record the fence keys, maybe drain the buffer.
  void end_block() {
    if (in_block_ == 0) return;
    const std::size_t body_len = in_block_ * seg_detail::kEntryBytes;
    out_len_ = block_start_ + seg_detail::kBlockHeaderBytes + body_len;
    char* base = out_.data() + block_start_;
    const std::uint32_t crc =
        crc32c(base + seg_detail::kBlockHeaderBytes, body_len);
    const std::uint32_t count32 = static_cast<std::uint32_t>(in_block_);
    std::memcpy(base, &crc, 4);
    std::memcpy(base + 4, &count32, 4);
    index_.push_back({flushed_ + block_start_, count32, block_min_, block_max_});
    in_block_ = 0;
    if (out_len_ >= kWriteChunkBytes) {
      file_->append(out_.data(), out_len_);
      flushed_ += out_len_;
      out_len_ = 0;
    }
  }

  std::unique_ptr<WritableFile> file_;
  std::size_t entries_per_block_;
  // Staging arena: out_[0, out_len_) holds encoded blocks not yet written;
  // out_.size() is capacity only (no zero-filling resize per block).
  std::string out_;
  std::size_t out_len_ = 0;
  std::uint64_t flushed_ = 0;
  std::size_t block_start_ = 0;
  char* p_ = nullptr;
  std::size_t in_block_ = 0;
  std::uint64_t block_min_ = 0;
  std::uint64_t block_max_ = 0;
  std::vector<BlockMeta> index_;
  std::uint64_t total_count_ = 0;
};

/// Read-side view of one segment file: the footer index is validated and
/// held in memory at open; for_each_raw streams the blocks, validating each
/// before handing out its entries.
class SegmentReader {
 public:
  SegmentReader(StorageEnv& env, const std::string& name)
      : file_(env.open_read(name)), name_(name) {
    const std::uint64_t fsize = file_->size();
    if (fsize < 8 + seg_detail::kTailBytes) {
      throw CorruptionError("segment " + name + ": file too small");
    }
    char head[8];
    read_fully(*file_, 0, head, 8);
    if (seg_detail::get_u64(head) != kSegmentMagic) {
      throw CorruptionError("segment " + name + ": bad magic");
    }
    char tail[seg_detail::kTailBytes];
    read_fully(*file_, fsize - seg_detail::kTailBytes, tail,
               seg_detail::kTailBytes);
    if (seg_detail::get_u64(tail + 24) != kSegmentMagic) {
      throw CorruptionError("segment " + name + ": bad tail magic");
    }
    const std::uint64_t index_offset = seg_detail::get_u64(tail);
    const std::uint32_t index_crc = seg_detail::get_u32(tail + 8);
    const std::uint32_t block_count = seg_detail::get_u32(tail + 12);
    total_count_ = seg_detail::get_u64(tail + 16);
    const std::uint64_t index_bytes =
        static_cast<std::uint64_t>(block_count) * seg_detail::kIndexEntryBytes;
    if (index_offset < 8 ||
        index_offset + index_bytes + seg_detail::kTailBytes != fsize) {
      throw CorruptionError("segment " + name + ": inconsistent footer");
    }
    std::string index(static_cast<std::size_t>(index_bytes), '\0');
    if (index_bytes > 0) read_fully(*file_, index_offset, index.data(), index.size());
    if (crc32c(index.data(), index.size()) != index_crc) {
      throw CorruptionError("segment " + name + ": index CRC mismatch");
    }
    blocks_.reserve(block_count);
    std::uint64_t counted = 0;
    for (std::uint32_t i = 0; i < block_count; ++i) {
      const char* p = index.data() + i * seg_detail::kIndexEntryBytes;
      BlockMeta m{seg_detail::get_u64(p), seg_detail::get_u32(p + 8),
                  seg_detail::get_u64(p + 12), seg_detail::get_u64(p + 20)};
      if (m.offset < 8 || m.offset >= index_offset || m.count == 0 ||
          m.min_key > m.max_key ||
          (!blocks_.empty() && m.min_key <= blocks_.back().max_key)) {
        throw CorruptionError("segment " + name + ": invalid block index");
      }
      counted += m.count;
      blocks_.push_back(m);
    }
    if (counted != total_count_) {
      throw CorruptionError("segment " + name + ": entry count mismatch");
    }
  }

  std::uint64_t total_count() const noexcept { return total_count_; }
  std::size_t block_count() const noexcept { return blocks_.size(); }
  std::uint64_t min_key() const { return blocks_.empty() ? 0 : blocks_.front().min_key; }
  std::uint64_t max_key() const { return blocks_.empty() ? 0 : blocks_.back().max_key; }

  /// Stream every entry (tombstones included) in key order — the recovery
  /// path. Each block is read and decoded into one reused buffer and
  /// checked (CRC, count, strictly ascending keys, fences) before any of
  /// its entries reach `fn`.
  template <class Fn>
  void for_each_raw(Fn&& fn) {
    std::string raw;
    std::vector<SegmentEntry> block;
    for (const BlockMeta& m : blocks_) {
      const std::size_t body_bytes = m.count * seg_detail::kEntryBytes;
      raw.resize(seg_detail::kBlockHeaderBytes + body_bytes);
      read_fully(*file_, m.offset, raw.data(), raw.size());
      const std::uint32_t crc = seg_detail::get_u32(raw.data());
      const std::uint32_t count = seg_detail::get_u32(raw.data() + 4);
      const char* body = raw.data() + seg_detail::kBlockHeaderBytes;
      if (count != m.count || crc32c(body, body_bytes) != crc) {
        throw CorruptionError("segment " + name_ + ": block CRC mismatch");
      }
      block.clear();
      for (std::uint32_t i = 0; i < m.count; ++i, body += seg_detail::kEntryBytes) {
        const SegmentEntry e{seg_detail::get_u64(body),
                             seg_detail::get_u64(body + 8),
                             static_cast<std::uint8_t>(body[16])};
        if (!block.empty() && e.key <= block.back().key) {
          throw CorruptionError("segment " + name_ + ": unsorted block");
        }
        block.push_back(e);
      }
      if (block.front().key != m.min_key || block.back().key != m.max_key) {
        throw CorruptionError("segment " + name_ + ": fence/block mismatch");
      }
      for (const SegmentEntry& e : block) fn(e);
    }
  }

 private:
  struct BlockMeta {
    std::uint64_t offset;
    std::uint32_t count;
    std::uint64_t min_key;
    std::uint64_t max_key;
  };

  std::unique_ptr<RandomReadFile> file_;
  std::string name_;
  std::vector<BlockMeta> blocks_;
  std::uint64_t total_count_ = 0;
};

}  // namespace costream::storage
