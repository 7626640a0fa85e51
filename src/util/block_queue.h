// A FIFO in ~4 KiB blocks for the commit path's GC and epoch queues. It
// never copies or makes a large allocation (that would move glibc's mmap
// threshold), and keeps up to kMaxSpares emptied blocks, so a backlog that
// swings by a few blocks allocates nothing. The owner synchronizes it.
#pragma once

#include <cstdint>
#include <utility>

namespace mvstore {

template <typename T>
class BlockQueue {
 public:
  BlockQueue() = default;
  ~BlockQueue() {
    while (head_ != nullptr) delete std::exchange(head_, head_->next);
    while (spares_ != nullptr) delete std::exchange(spares_, spares_->next);
  }
  BlockQueue(const BlockQueue&) = delete;
  BlockQueue& operator=(const BlockQueue&) = delete;

  uint64_t size() const { return size_; }
  const T& front() const { return head_->items[head_pos_]; }

  void PushBack(const T& item) {
    if (tail_ == nullptr || tail_pos_ == kBlockItems) {
      Block* block = spares_;
      if (block != nullptr) {
        spares_ = block->next;
        --num_spares_;
      } else {
        block = new Block;
      }
      block->next = nullptr;
      if (tail_ == nullptr) {
        head_ = block;
      } else {
        tail_->next = block;
      }
      tail_ = block;
      tail_pos_ = 0;
    }
    tail_->items[tail_pos_++] = item;
    ++size_;
  }

  /// Requires size() > 0.
  T PopFront() {
    const T item = head_->items[head_pos_++];
    if (--size_ == 0) {
      // Empty: head_ == tail_; rewind within the block in hand.
      head_pos_ = tail_pos_ = 0;
    } else if (head_pos_ == kBlockItems) {
      Block* done = std::exchange(head_, head_->next);
      head_pos_ = 0;
      if (num_spares_ < kMaxSpares) {
        done->next = spares_;
        spares_ = done;
        ++num_spares_;
      } else {
        delete done;
      }
    }
    return item;
  }

 private:
  static constexpr uint32_t kMaxSpares = 4;
  static constexpr uint32_t kBlockItems =
      static_cast<uint32_t>((4096 - sizeof(void*)) / sizeof(T));
  struct Block {
    T items[kBlockItems];
    Block* next;
  };

  Block* head_ = nullptr;
  Block* tail_ = nullptr;
  Block* spares_ = nullptr;  // emptied blocks, linked through `next`
  uint32_t num_spares_ = 0;
  uint32_t head_pos_ = 0;  // next item to pop in head_
  uint32_t tail_pos_ = 0;  // next free item in tail_
  uint64_t size_ = 0;
};

}  // namespace mvstore
