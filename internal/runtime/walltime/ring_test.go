package walltime

import (
	"runtime"
	"testing"

	rt "chainmon/internal/runtime"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing(8)
	for i := uint64(0); i < 5; i++ {
		if !r.Post(rt.Event{Act: i}) {
			t.Fatalf("post %d failed", i)
		}
	}
	for i := uint64(0); i < 5; i++ {
		ev, ok := r.Pop()
		if !ok || ev.Act != i {
			t.Fatalf("pop %d = %v,%v", i, ev, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop on empty ring succeeded")
	}
}

// A full ring rejects a post until the consumer frees a slot.
func TestRingFullRejects(t *testing.T) {
	r := NewRing(4)
	for i := uint64(0); i < 4; i++ {
		if !r.Post(rt.Event{Act: i}) {
			t.Fatalf("post %d failed", i)
		}
	}
	if r.Post(rt.Event{Act: 99}) {
		t.Error("post on full ring succeeded")
	}
	if r.Len() != 4 {
		t.Errorf("len = %d", r.Len())
	}
	r.Pop()
	if !r.Post(rt.Event{Act: 4}) {
		t.Error("post after pop failed")
	}
}

// Single posts and pops across many wraps of a small ring keep FIFO order.
func TestRingWrapAround(t *testing.T) {
	r := NewRing(4)
	for round := uint64(0); round < 20; round++ {
		if !r.Post(rt.Event{Act: round}) {
			t.Fatalf("post %d failed", round)
		}
		ev, ok := r.Pop()
		if !ok || ev.Act != round {
			t.Fatalf("round %d: got %v,%v", round, ev, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop on empty ring succeeded")
	}
}

func TestRingCapacityValidation(t *testing.T) {
	for _, c := range []int{0, -1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d: expected panic", c)
				}
			}()
			NewRing(c)
		}()
	}
	if NewRing(16).Cap() != 16 {
		t.Error("cap wrong")
	}
}

// TestRingConcurrentSPSC churns a producer goroutine against a Pop
// consumer; under -race this is the memory-ordering check of the
// single-event path (TestRingPopBatchConcurrent covers the batched one).
func TestRingConcurrentSPSC(t *testing.T) {
	const total = 5000
	r := NewRing(64)
	go func() {
		for i := 0; i < total; {
			if r.Post(rt.Event{Act: uint64(i)}) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	for want := uint64(0); want < total; {
		ev, ok := r.Pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if ev.Act != want {
			t.Fatalf("got act %d, want %d (reorder or loss)", ev.Act, want)
		}
		want++
	}
}
