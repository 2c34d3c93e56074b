package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSegmentRead feeds arbitrary bytes to the segment reader. The
// contract under any mutation: the scan returns records then a clean
// EOF, a clean truncation (ErrTorn), a typed *CorruptError, or — for a
// header "PWRWAL<d>\n" with d not '1' only — a versionError; never a
// panic, a hang, or a silently wrong record. "Never silently wrong" is
// checked by re-encoding: whatever the reader accepted must re-serialize
// to exactly the byte prefix it consumed.
func FuzzSegmentRead(f *testing.F) {
	// Seed: a healthy segment with a few frames of each type.
	seed := appendSegmentHeader(nil, 42)
	seed = AppendFrame(seed, RecordData, []byte(`{"agent":"a","seq":1,"samples":[{"node":1,"job":7,"t":1700000000,"w":212.5}]}`))
	seed = AppendFrame(seed, RecordTombstone, tombstoneBody(43))
	seed = AppendFrame(seed, RecordData, []byte{})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                       // torn tail
	f.Add(appendSegmentHeader(nil, 1))              // header only
	f.Add([]byte{})                                 // empty
	f.Add([]byte("PWRWAL1\n"))                      // truncated header
	f.Add(append([]byte("PWRWAL2\n"), seed[8:]...)) // a newer version
	f.Add(bytes.Repeat([]byte{0xff}, 64))           // garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		var types []RecordType
		var bodies [][]byte
		first, records, valid, err := scanSegment(bytes.NewReader(data), func(typ RecordType, body []byte) error {
			types = append(types, typ)
			bodies = append(bodies, append([]byte(nil), body...))
			return nil
		})
		// The error, if any, must be one of the typed outcomes.
		if err != nil {
			var ce *CorruptError
			var ve versionError
			newer := len(data) >= segHeaderSize && string(data[:6]) == "PWRWAL" && data[6] >= '0' && data[6] <= '9' && data[6] != '1' && data[7] == '\n'
			if errors.As(err, &ve) != newer {
				t.Fatalf("scanSegment of a header %q: %v", data[:min(len(data), 8)], err)
			}
			if !newer && !errors.Is(err, ErrTorn) && !errors.As(err, &ce) {
				t.Fatalf("untyped error from scanSegment: %v", err)
			}
		}
		if records != len(bodies) {
			t.Fatalf("record count %d != delivered %d", records, len(bodies))
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of range [0, %d]", valid, len(data))
		}
		if records > 0 && valid < segHeaderSize {
			t.Fatalf("delivered %d records but valid offset %d precedes the header end", records, valid)
		}
		// Re-encode what was accepted: it must reproduce data[:valid]
		// exactly — the reader cannot have invented or altered a record.
		if records > 0 || (err == nil && valid >= segHeaderSize) {
			enc := appendSegmentHeader(nil, first)
			for i := range bodies {
				enc = AppendFrame(enc, types[i], bodies[i])
			}
			if !bytes.Equal(enc, data[:valid]) {
				t.Fatalf("re-encoded records do not match the consumed prefix:\n got %x\nwant %x", enc, data[:valid])
			}
		}
	})
}
