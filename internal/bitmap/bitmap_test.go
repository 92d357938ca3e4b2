package bitmap

import "testing"

func TestBitmapSetGetUnset(t *testing.T) {
	b := New(200)
	if b.Len() != 200 {
		t.Fatalf("Len = %d, want 200", b.Len())
	}
	for _, i := range []uint64{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Unset(64)
	if b.Get(64) {
		t.Fatal("bit 64 still set after Unset")
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestBitmapOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, fn := range map[string]func(){
		"Set":    func() { b.Set(10) },
		"Get":    func() { b.Get(10) },
		"Unset":  func() { b.Unset(11) },
		"Delete": func() { b.Delete(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(out of range) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBitmapDeleteShiftsTail(t *testing.T) {
	// Paper Fig. 3 semantics: after deleting position p, the bit at
	// position k (k >= p) is the old bit at position k+1.
	b := New(300)
	set := []uint64{2, 5, 70, 130, 131, 299}
	for _, i := range set {
		b.Set(i)
	}
	b.Delete(5)
	if b.Len() != 299 {
		t.Fatalf("Len = %d, want 299", b.Len())
	}
	want := []uint64{2, 69, 129, 130, 298}
	got := b.SetBits()
	if len(got) != len(want) {
		t.Fatalf("SetBits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SetBits = %v, want %v", got, want)
		}
	}
}

func TestBitmapDeleteSetBitItself(t *testing.T) {
	b := New(10)
	b.Set(3)
	b.Delete(3)
	if b.Count() != 0 {
		t.Fatalf("Count after deleting the only set bit = %d, want 0", b.Count())
	}
	if b.Len() != 9 {
		t.Fatalf("Len = %d, want 9", b.Len())
	}
}

func TestBitmapDeleteAtWordBoundaries(t *testing.T) {
	for _, pos := range []uint64{0, 63, 64, 127, 128} {
		b := New(256)
		b.Set(255)
		b.Set(pos)
		b.Delete(pos)
		if b.Get(254) != true {
			t.Fatalf("delete at %d: bit 255 should have moved to 254", pos)
		}
		if pos < 254 && b.Get(pos) {
			t.Fatalf("delete at %d: deleted slot should now hold old bit %d (unset)", pos, pos+1)
		}
	}
}

func TestBitmapForEachSetEarlyStop(t *testing.T) {
	b := New(100)
	for i := uint64(0); i < 100; i += 10 {
		b.Set(i)
	}
	var seen int
	b.ForEachSet(func(pos uint64) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early stop visited %d bits, want 3", seen)
	}
}

func TestBitmapEmpty(t *testing.T) {
	b := New(0)
	if b.Len() != 0 || b.Count() != 0 {
		t.Fatal("empty bitmap not empty")
	}
}
