package core

import (
	"reflect"
	"sync"
	"testing"

	"ecoscale/internal/smmu"
)

// stage1Of is the identity of an SMMU's stage-1 table: two SMMUs that
// share tables copy-on-write report the same map.
func stage1Of(s *smmu.SMMU) uintptr {
	return reflect.ValueOf(s).Elem().FieldByName("stage1").Pointer()
}

func TestIdentityTemplateShared(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	a, b := New(cfg), New(cfg)
	tmpl := identityTemplate(cfg.SMMU, cfg.MappedBytes)
	for name, m := range map[string]*Machine{"A": a, "B": b} {
		if got := stage1Of(m.Manager(1).MMU); got != stage1Of(tmpl) {
			t.Errorf("machine %s Worker 1 does not borrow the shared identity template", name)
		}
	}

	other := cfg
	other.MappedBytes = cfg.MappedBytes / 2
	if identityTemplate(other.SMMU, other.MappedBytes) == tmpl {
		t.Error("a different MappedBytes reused the template")
	}
	other = cfg
	other.SMMU.PageBits = cfg.SMMU.PageBits + 1
	if identityTemplate(other.SMMU, other.MappedBytes) == tmpl {
		t.Error("a different PageBits reused the template")
	}

	// A private mapping on machine A's Worker 0 copies the tables first;
	// machine B and the template keep the identity.
	const va = 0x3000
	page := a.Manager(0).MMU.PageSize()
	a.Manager(0).MMU.MapStage1(1, va, 7*page, smmu.PermRW)
	if r, err := a.Manager(0).MMU.Translate(0, va, smmu.PermRead); err != nil || r.PA != 7*page {
		t.Errorf("remapped A translates %#x to %#x, %v; want %#x", va, r.PA, err, 7*page)
	}
	if r, err := b.Manager(0).MMU.Translate(0, va, smmu.PermRead); err != nil || r.PA != va {
		t.Errorf("B translates %#x to %#x, %v after A remapped it; want the identity", va, r.PA, err)
	}
	if stage1Of(a.Manager(0).MMU) == stage1Of(tmpl) {
		t.Error("A's remapped Worker still shares the template")
	}

	// Machines of a fresh geometry, built and translating on several
	// goroutines at once, so the race detector sees the template's
	// first build and its shared reads.
	cfg.MappedBytes = 3 << 20 // a geometry no other test builds
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := New(cfg)
			for w := 0; w < m.Workers(); w++ {
				mmu := m.Manager(w).MMU
				for va := uint64(0); va < uint64(cfg.MappedBytes); va += 64 << 10 {
					if r, err := mmu.Translate(w*1000, va, smmu.PermRW); err != nil || r.PA != va {
						t.Errorf("Worker %d translates %#x to %#x, %v; want the identity", w, va, r.PA, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
