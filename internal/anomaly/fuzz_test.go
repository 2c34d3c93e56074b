package anomaly

import (
	"encoding/json"
	"testing"
)

// FuzzParseRules: any input either parses or errors — never panics —
// and every accepted spec round-trips through FormatRules.
func FuzzParseRules(f *testing.F) {
	f.Add("default")
	f.Add("flatline")
	f.Add("flatline:rel-std=0.02,min-duration=20m;overshoot:overshoot-pct=30")
	f.Add("zombie:severity=critical,low-frac=0.3")
	f.Add("drift:runs=5,drift-frac=0.5,min-w=100")
	f.Add("overshoot:name=soft,overshoot-pct=20;overshoot:name=hard,overshoot-pct=50")
	f.Add(";;;")
	f.Add("flatline:rel-std=")
	f.Add("flatline:rel-std=NaN")
	f.Add("flatline:min-duration=9999999h")
	f.Add("overshoot:min-w=5")
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil {
			return
		}
		formatted := FormatRules(rules)
		again, err := ParseRules(formatted)
		if err != nil {
			t.Fatalf("accepted spec %q formatted to unparseable %q: %v", spec, formatted, err)
		}
		if len(again) != len(rules) {
			t.Fatalf("round trip of %q changed rule count", spec)
		}
		for i := range rules {
			if rules[i] != again[i] {
				t.Fatalf("round trip of %q changed rule %d: %+v vs %+v", spec, i, rules[i], again[i])
			}
		}
	})
}

// FuzzFingerprintDecode: decoding an arbitrary fingerprint trend payload
// either fails or yields something Valid can classify — and updating a
// Valid trend never panics or corrupts it into invalidity.
func FuzzFingerprintDecode(f *testing.F) {
	var fp Trend
	for i := 0; i < 40; i++ {
		fp.Update(int64(1000+i*60), 100+float64(i%13), 0)
	}
	seed, _ := json.Marshal(fp)
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"shape":[0,0,0,-1,0,0,0,1]}`))
	f.Add([]byte(`{"ew_fast":1e308,"ew_var":1e308,"shape":[0,0,0,0,5,0,0,0]}`))
	f.Add([]byte(`{"ew_slow":2,"shape":[0,0,0,0,0,0,0,0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Trend
		if err := json.Unmarshal(data, &got); err != nil {
			return
		}
		if !got.Valid() {
			return // rejected, as the restore path would
		}
		// A trend that passed Valid must survive further updates.
		folds := got.folds()
		got.Update(got.LastPhase+60, 123.5, 0)
		got.Update(got.LastPhase+120, 1, 0)
		if got.folds() != folds+2 || !got.Valid() {
			t.Fatalf("valid trend went bad after two updates: %+v", got)
		}
	})
}

// FuzzEngineStateDecode: an arbitrary engine-state payload either fails
// to decode, fails RestoreState validation, or restores cleanly —
// never panics and never leaves the engine unusable.
func FuzzEngineStateDecode(f *testing.F) {
	h := struct{ fps map[uint64]*Fingerprint }{fps: map[uint64]*Fingerprint{}}
	lookup := func(job uint64) (Fingerprint, bool) {
		fp := h.fps[job]
		if fp == nil {
			return Fingerprint{}, false
		}
		return *fp, true
	}

	eng := NewEngine(Config{Lookup: lookup})
	seed, _ := json.Marshal(eng.ExportState())
	eng.Close()
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"jobs":[{"job":0}]}`))
	f.Add([]byte(`{"jobs":[{"job":5,"states":[{"rule":"flatline","firing":true}]}]}`))
	f.Add([]byte(`{"seq":3,"events":[{"seq":1,"type":"fire","job":9}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st EngineState
		if err := json.Unmarshal(data, &st); err != nil {
			return
		}
		e := NewEngine(Config{RingSize: 64, Lookup: lookup})
		defer e.Close()
		if _, err := e.RestoreState(&st); err != nil {
			return
		}
		// Restored engines must remain operational.
		e.ObserveBatch(nil, "")
		_ = e.Active()
		_ = e.Events(Filter{Node: -1})
		_ = e.Snapshot()
		if _, err := json.Marshal(e.ExportState()); err != nil {
			t.Fatalf("restored engine cannot re-export: %v", err)
		}
	})
}
