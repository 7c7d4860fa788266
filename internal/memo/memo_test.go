package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetComputesOnceThenHits(t *testing.T) {
	m := New[string, int](4)
	calls := 0
	compute := func() int { calls++; return 7 }
	if v, hit := m.Get("a", compute); v != 7 || hit {
		t.Fatalf("first Get = %d, %v; want 7, miss", v, hit)
	}
	if v, hit := m.Get("a", compute); v != 7 || !hit {
		t.Fatalf("second Get = %d, %v; want 7, hit", v, hit)
	}
	if calls != 1 || m.Len() != 1 {
		t.Fatalf("calls = %d, len = %d; want 1, 1", calls, m.Len())
	}
}

func TestNilMemoComputesEveryTime(t *testing.T) {
	var m *Memo[int, int]
	calls := 0
	for range 3 {
		if v, hit := m.Get(1, func() int { calls++; return calls }); hit || v != calls {
			t.Fatalf("nil Get = %d, %v; want %d, miss", v, hit, calls)
		}
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

// TestCapClearsEverything pins the one growth rule: the store that
// would exceed the cap clears the memo first, so it never holds more
// than cap entries and restarts from the new one.
func TestCapClearsEverything(t *testing.T) {
	m := New[int, int](3)
	for k := range 3 {
		m.Get(k, func() int { return k })
	}
	if m.Len() != 3 {
		t.Fatalf("len = %d at the cap, want 3", m.Len())
	}
	m.Get(3, func() int { return 3 })
	if m.Len() != 1 {
		t.Fatalf("len = %d after passing the cap, want 1", m.Len())
	}
	if _, hit := m.Get(0, func() int { return 0 }); hit {
		t.Fatal("entry survived the clear")
	}
	if _, hit := m.Get(3, func() int { return 3 }); !hit {
		t.Fatal("the entry stored after the clear is missing")
	}
}

func TestClear(t *testing.T) {
	m := New[string, string](8)
	m.Get("k", func() string { return "v" })
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("len = %d after Clear", m.Len())
	}
	if _, hit := m.Get("k", func() string { return "v" }); hit {
		t.Fatal("hit after Clear")
	}
}

// TestConcurrentGet runs many goroutines over a few keys under -race:
// every Get returns the key's value, and the hits plus the computes
// account for every call.
func TestConcurrentGet(t *testing.T) {
	m := New[int, int](1 << 10)
	var computes, hits atomic.Int64
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				k := (g + i) % 16
				v, hit := m.Get(k, func() int { computes.Add(1); return k * k })
				if v != k*k {
					t.Errorf("Get(%d) = %d", k, v)
				}
				if hit {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if computes.Load()+hits.Load() != 8*200 {
		t.Fatalf("computes %d + hits %d != %d", computes.Load(), hits.Load(), 8*200)
	}
	if computes.Load() < 16 || m.Len() != 16 {
		t.Fatalf("computes = %d, len = %d; want >= 16, 16", computes.Load(), m.Len())
	}
}
