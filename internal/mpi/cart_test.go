package mpi

import (
	"testing"
	"testing/quick"
)

func TestCartCoordsRankRoundtrip(t *testing.T) {
	_, c := newComm(t, 12)
	ct := NewCart(c, []int{3, 4}, nil)
	for r := 0; r < 12; r++ {
		coords := ct.Coords(r)
		if got := ct.Rank(coords); got != r {
			t.Errorf("rank %d → %v → %d", r, coords, got)
		}
	}
	if co := ct.Coords(7); co[0] != 1 || co[1] != 3 {
		t.Errorf("Coords(7) = %v, want [1 3]", co)
	}
}

func TestCartShiftInterior(t *testing.T) {
	_, c := newComm(t, 9)
	ct := NewCart(c, []int{3, 3}, nil)
	// Rank 4 is the centre of a 3x3.
	src, dst := ct.Shift(4, 0, 1)
	if src != 1 || dst != 7 {
		t.Errorf("row shift = (%d,%d), want (1,7)", src, dst)
	}
	src, dst = ct.Shift(4, 1, 1)
	if src != 3 || dst != 5 {
		t.Errorf("col shift = (%d,%d), want (3,5)", src, dst)
	}
}

func TestCartShiftEdges(t *testing.T) {
	_, c := newComm(t, 4)
	open := NewCart(c, []int{4}, nil)
	src, dst := open.Shift(0, 0, 1)
	if src != -1 || dst != 1 {
		t.Errorf("open edge shift = (%d,%d)", src, dst)
	}
	src, dst = open.Shift(3, 0, 1)
	if src != 2 || dst != -1 {
		t.Errorf("open end shift = (%d,%d)", src, dst)
	}
	_, c2 := newComm(t, 4)
	ring := NewCart(c2, []int{4}, []bool{true})
	src, dst = ring.Shift(0, 0, 1)
	if src != 3 || dst != 1 {
		t.Errorf("periodic shift = (%d,%d), want (3,1)", src, dst)
	}
}

func TestCartPanics(t *testing.T) {
	_, c := newComm(t, 4)
	for name, fn := range map[string]func(){
		"empty dims": func() { NewCart(c, nil, nil) },
		"wrong prod": func() { NewCart(c, []int{3}, nil) },
		"zero dim":   func() { NewCart(c, []int{0, 4}, nil) },
		"bad period": func() { NewCart(c, []int{4}, []bool{true, false}) },
		"bad coords": func() { NewCart(c, []int{4}, nil).Rank([]int{9}) },
		"bad dims":   func() { NewCart(c, []int{4}, nil).Rank([]int{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: Coords/Rank are inverse bijections on arbitrary 3D grids.
func TestCartBijectionProperty(t *testing.T) {
	prop := func(aRaw, bRaw, cRaw uint8) bool {
		a, b, cc := int(aRaw%3)+1, int(bRaw%3)+1, int(cRaw%3)+1
		_, comm := newComm(t, a*b*cc)
		ct := NewCart(comm, []int{a, b, cc}, nil)
		seen := map[int]bool{}
		for r := 0; r < a*b*cc; r++ {
			if ct.Rank(ct.Coords(r)) != r {
				return false
			}
			seen[r] = true
		}
		return len(seen) == a*b*cc
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
