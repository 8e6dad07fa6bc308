package telemetry

import "fmt"

// StoreChunk is the number of records one chunk of a Store holds: 255
// records and the link fill a size class exactly when a record is 16
// bytes (4 KiB), 8 bytes (2 KiB) or 80 bytes (20 KiB).
const StoreChunk = 255

// Store is an append-only log of records kept in fixed-size chunks,
// linked in order. A record, once appended, is never copied: the log
// grows by one chunk at a time, so n appends make ⌈n/StoreChunk⌉
// allocations and hold at most one partly filled chunk
// (TestRecordAllocatesByTheChunk).
//
// Head and N are exported because a checkpoint stores a replication's
// request log as it is (repResult.Requests); Check validates what a
// decoder produced.
type Store[T any] struct {
	Head *Chunk[T]
	N    int // records appended
	tail *Chunk[T]
}

// Chunk is one block of a Store: the filled prefix of Items, then the
// next block.
type Chunk[T any] struct {
	Items [StoreChunk]T
	Next  *Chunk[T]
}

// Append adds v at the end of the log. A Store decoded from a
// checkpoint is read, never appended to.
func (s *Store[T]) Append(v T) {
	i := s.N % StoreChunk
	if i == 0 {
		c := new(Chunk[T])
		if s.N == 0 {
			s.Head = c
		} else {
			s.tail.Next = c
		}
		s.tail = c
	}
	s.tail.Items[i] = v
	s.N++
}

// Each calls fn on record i and its successors, in order. fn may read
// the record through its pointer but must not keep it.
func (s *Store[T]) Each(from int, fn func(i int, v *T)) {
	c, base := s.Head, 0
	for c != nil && from >= base+StoreChunk {
		c, base = c.Next, base+StoreChunk
	}
	for i := from; c != nil && i < s.N; c, base = c.Next, base+StoreChunk {
		for ; i < s.N && i < base+StoreChunk; i++ {
			fn(i, &c.Items[i-base])
		}
	}
}

// Slice copies the records out in order into a slice of exactly their
// number; nil when there are none.
func (s *Store[T]) Slice() []T {
	if s.N == 0 {
		return nil
	}
	out := make([]T, 0, s.N)
	for c := s.Head; c != nil && len(out) < s.N; c = c.Next {
		out = append(out, c.Items[:min(StoreChunk, s.N-len(out))]...)
	}
	return out
}

// Check reports an error unless the chunks are exactly the ⌈N/StoreChunk⌉
// that Append would have linked for N records.
func (s *Store[T]) Check() error {
	chunks := 0
	for c := s.Head; c != nil; c = c.Next {
		chunks++
	}
	if s.N < 0 || s.N > chunks*StoreChunk || s.N <= (chunks-1)*StoreChunk {
		return fmt.Errorf("%d records in %d chunks of %d", s.N, chunks, StoreChunk)
	}
	return nil
}
