package core

import (
	"fmt"
	"testing"
)

// FuzzConfigValidate drives the Config surface: Validate must never
// panic, and whenever it accepts a configuration, New must build the
// machine, and its first Worker must materialize, without panicking. The harness bounds the machine to a few
// hundred Workers and the identity map to 64k pages, so every accepted
// input is cheap to build. The seed corpus runs under plain go test.
func FuzzConfigValidate(f *testing.F) {
	f.Add(int64(1), uint8(2), int16(4), int16(2), int16(1), int32(4096), int16(1024), int16(8),
		int16(8), 12.8, int32(16), int16(8), int16(8), int16(64), int8(12), int32(0), int8(0), uint8(0))
	f.Add(int64(7), uint8(3), int16(2), int16(2), int16(2), int32(64), int16(1), int16(1),
		int16(1), 0.5, int32(0), int16(1), int16(1), int16(1), int8(12), int32(1<<20), int8(3), uint8(0))
	f.Add(int64(-3), uint8(1), int16(3), int16(0), int16(0), int32(100), int16(0), int16(-1),
		int16(0), -1.0, int32(-5), int16(2), int16(3), int16(4), int8(-2), int32(-1), int8(-1), uint8(7))
	f.Add(int64(0), uint8(2), int16(2), int16(4), int16(0), int32(8192), int16(16), int16(4),
		int16(0), 0.0, int32(16), int16(4), int16(4), int16(8), int8(40), int32(64), int8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, levels uint8, f0, f1, f2 int16, pageBytes int32,
		sets, ways, banks int16, bytesPerNs float64, ctrlBytes int32,
		rows, cols, tlb int16, pageBits int8, mapped int32, shards int8, flags uint8) {
		cfg := DefaultConfig(2, 2)
		cfg.Seed = seed
		cfg.FanOut = []int{int(f0), int(f1), int(f2)}[:int(levels)%4]
		cfg.Unimem.PageBytes = int(pageBytes)
		cfg.Unimem.CacheCfg.Sets, cfg.Unimem.CacheCfg.Ways = int(sets), int(ways)
		cfg.Unimem.DRAMCfg.Banks, cfg.Unimem.DRAMCfg.BytesPerNs = int(banks), bytesPerNs
		cfg.Unimem.CtrlBytes = int(ctrlBytes)
		cfg.Fabric.Rows, cfg.Fabric.Cols = int(rows), int(cols)
		cfg.SMMU.TLBEntries, cfg.SMMU.PageBits = int(tlb), int(pageBits)
		cfg.MappedBytes = int(mapped)
		cfg.Shards = int(shards)
		cfg.Trace, cfg.Profile, cfg.FlowTrace = flags&1 != 0, flags&2 != 0, flags&4 != 0
		if cfg.Validate() != nil {
			return
		}
		workers := 1
		for _, n := range cfg.FanOut {
			workers *= n
		}
		if workers > 256 || cfg.MappedBytes>>cfg.SMMU.PageBits > 1<<16 {
			return // keep each accepted build small
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Validate accepted %s but building it panicked: %v", describe(cfg), r)
				}
			}()
			m := New(cfg)
			// Materialize the first Worker: its cache, DRAM, fabric, SMMU
			// and scheduler are built from the config on first touch.
			m.Manager(0)
			m.Sched(0)
			m.Space.Cache(0).Access(0, false)
		}()
	})
}

func describe(cfg Config) string {
	return fmt.Sprintf("{FanOut:%v Unimem:%+v Fabric:%dx%d SMMU:%+v MappedBytes:%d Shards:%d}",
		cfg.FanOut, cfg.Unimem, cfg.Fabric.Rows, cfg.Fabric.Cols, cfg.SMMU, cfg.MappedBytes, cfg.Shards)
}
