package vfs

import (
	"testing"
)

// FuzzParseFaultSpec checks the spec parser never panics, that every
// accepted config is inside the documented ranges and that it
// round-trips through String (the parser is the operator-facing
// surface of -fault-disk, so garbage must fail loudly and valid specs
// must be stable).
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("seed=7,write-eio=0.001")
	f.Add("enospc-after=4194304,enospc-for=5s,torn=1")
	f.Add("path=wal-,latency=250us,bitflip=1e-6")
	f.Add(",,,=,==")
	f.Add("torn=yes")
	f.Add("write-eio=NaN,read-eio=-1")
	f.Add("enospc-for=-5s")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		for _, p := range []float64{cfg.ReadErrProb, cfg.WriteErrProb, cfg.SyncErrProb, cfg.BitFlipProb} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("%q: accepted probability %v outside [0, 1]: %+v", spec, p, cfg)
			}
		}
		if cfg.WriteBudget < 0 || cfg.ENOSPCFor < 0 || cfg.Latency < 0 {
			t.Fatalf("%q: accepted a negative budget, outage or latency: %+v", spec, cfg)
		}
		s := cfg.String()
		back, err := ParseFaultSpec(s)
		if err != nil {
			t.Fatalf("re-parse of String() failed: %q -> %+v -> %q: %v", spec, cfg, s, err)
		}
		if back != cfg {
			t.Fatalf("round trip drift: %q -> %+v -> %q -> %+v", spec, cfg, s, back)
		}
		ffs := NewFault(OS, cfg)
		_ = ffs.Stats()
	})
}
