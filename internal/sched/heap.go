package sched

import "repro/internal/task"

// entry is one ready-queue element, stored by value: the ordering key is
// computed once at push time, so the heap's comparisons are two loads
// from the same contiguous slice — no indirect key-function call and no
// pointer chase into the task on the hot path. seq carries the
// deterministic FIFO tie-break.
type entry struct {
	key float64
	seq uint64
	t   *task.Task
}

// entryHeap is a binary min-heap over (key, seq): the part of a bank
// lane below its cached top entry.
type entryHeap struct {
	items []entry
}

// reset empties the heap while keeping its backing array, so a reused
// lane reaches its working size without re-growing.
func (h *entryHeap) reset() {
	for i := range h.items {
		h.items[i] = entry{}
	}
	h.items = h.items[:0]
}

func (h *entryHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (h *entryHeap) pushEntry(e entry) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// popEntry removes and returns the minimum entry; the heap must be
// non-empty.
func (h *entryHeap) popEntry() entry {
	n := len(h.items)
	top := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = entry{}
	h.items = h.items[:n-1]
	h.down(0)
	return top
}

func (h *entryHeap) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
}
