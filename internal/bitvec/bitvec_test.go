package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorSetClear(t *testing.T) {
	v := New(200)
	for i := 0; i < 200; i += 3 {
		v.Set(i)
	}
	for i := 0; i < 200; i++ {
		want := i%3 == 0
		if v.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, v.Bit(i), want)
		}
	}
	v.Clear(0)
	if v.Bit(0) {
		t.Fatal("Clear(0) failed")
	}
	v.SetTo(1, true)
	if !v.Bit(1) {
		t.Fatal("SetTo(1,true) failed")
	}
}

func TestVectorAppend(t *testing.T) {
	var v Vector
	pattern := []bool{true, false, true, true, false, false, true}
	for i := 0; i < 500; i++ {
		v.Append(pattern[i%len(pattern)])
	}
	if v.Len() != 500 {
		t.Fatalf("Len = %d, want 500", v.Len())
	}
	for i := 0; i < 500; i++ {
		if v.Bit(i) != pattern[i%len(pattern)] {
			t.Fatalf("bit %d wrong after Append", i)
		}
	}
}

func TestRankSelectAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 63, 64, 65, 1000, 4096} {
		v := New(n)
		ones := []int{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				v.Set(i)
				ones = append(ones, i)
			}
		}
		rs := NewRankSelect(v)
		if rs.Ones() != len(ones) {
			t.Fatalf("n=%d: Ones=%d want %d", n, rs.Ones(), len(ones))
		}
		// Rank at every position, vs running count.
		cnt := 0
		for i := 0; i <= n; i++ {
			if rs.Rank1(i) != cnt {
				t.Fatalf("n=%d: Rank1(%d)=%d want %d", n, i, rs.Rank1(i), cnt)
			}
			if rs.Rank0(i) != i-cnt {
				t.Fatalf("n=%d: Rank0(%d) wrong", n, i)
			}
			if i < n && v.Bit(i) {
				cnt++
			}
		}
		// Select of every one.
		for k, pos := range ones {
			if got := rs.Select1(k); got != pos {
				t.Fatalf("n=%d: Select1(%d)=%d want %d", n, k, got, pos)
			}
		}
		// Select0 of every zero.
		zi := 0
		for i := 0; i < n; i++ {
			if !v.Bit(i) {
				if got := rs.Select0(zi); got != i {
					t.Fatalf("n=%d: Select0(%d)=%d want %d", n, zi, got, i)
				}
				zi++
			}
		}
	}
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	v := New(10)
	v.Set(3)
	rs := NewRankSelect(v)
	defer func() {
		if recover() == nil {
			t.Fatal("Select1 out of range should panic")
		}
	}()
	rs.Select1(1)
}

func TestRankSelectInverse(t *testing.T) {
	// Property: Rank1(Select1(k)) == k and Bit(Select1(k)) == true.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(2000)
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				v.Set(i)
			}
		}
		rs := NewRankSelect(v)
		for k := 0; k < rs.Ones(); k += 7 {
			p := rs.Select1(k)
			if !v.Bit(p) || rs.Rank1(p) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPackedRoundTrip(t *testing.T) {
	for _, w := range []uint{1, 3, 7, 8, 9, 13, 16, 21, 32, 33, 48, 63, 64} {
		n := 300
		p := NewPacked(n, w)
		rng := rand.New(rand.NewSource(int64(w)))
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & maskW(w)
			p.Set(i, vals[i])
		}
		for i, want := range vals {
			if got := p.Get(i); got != want {
				t.Fatalf("w=%d: Get(%d)=%#x want %#x", w, i, got, want)
			}
		}
		// Overwrite in reverse order; neighbours must be untouched.
		for i := n - 1; i >= 0; i-- {
			vals[i] = rng.Uint64() & maskW(w)
			p.Set(i, vals[i])
		}
		for i, want := range vals {
			if got := p.Get(i); got != want {
				t.Fatalf("w=%d after overwrite: Get(%d)=%#x want %#x", w, i, got, want)
			}
		}
	}
}

func TestPackedTruncates(t *testing.T) {
	p := NewPacked(4, 4)
	p.Set(2, 0x123)
	if got := p.Get(2); got != 0x3 {
		t.Fatalf("expected truncation to 4 bits, got %#x", got)
	}
	if p.Get(1) != 0 || p.Get(3) != 0 {
		t.Fatal("neighbours disturbed")
	}
}

func TestPackedInvalidWidth(t *testing.T) {
	for _, w := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPacked width %d should panic", w)
				}
			}()
			NewPacked(1, w)
		}()
	}
}

func BenchmarkRank1(b *testing.B) {
	v := New(1 << 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < v.Len(); i += 2 {
		if rng.Intn(2) == 0 {
			v.Set(i)
		}
	}
	rs := NewRankSelect(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Rank1(int(uint(i) * 2654435761 % uint(v.Len())))
	}
}

func BenchmarkSelect1(b *testing.B) {
	v := New(1 << 20)
	for i := 0; i < v.Len(); i += 3 {
		v.Set(i)
	}
	rs := NewRankSelect(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Select1(int(uint(i) * 2654435761 % uint(rs.Ones())))
	}
}

func BenchmarkPackedGet(b *testing.B) {
	p := NewPacked(1<<20, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Get(int(uint(i) * 2654435761 % uint(p.Len())))
	}
}
