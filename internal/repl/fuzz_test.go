package repl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hpcpower/internal/vfs"
)

// FuzzEpochFile writes arbitrary bytes as an EPOCH record and opens it:
// the open yields a record or an error, never a panic; the one-field
// "N\n" form of the previous format reads as epoch N, not led; and
// whatever opened, a Store or a Lead past it reopens as written.
func FuzzEpochFile(f *testing.F) {
	for _, seed := range []string{"0\n", "7\n", "7 7\n", "9 4\n", "4 9\n", "", "x\n", "18446744073709551615\n", "1 2 3"} {
		f.Add([]byte(seed), uint64(3), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, next uint64, lead bool) {
		path := filepath.Join(t.TempDir(), "EPOCH")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := OpenEpochFile(vfs.OS, path)
		n, perr := strconv.ParseUint(strings.TrimSuffix(string(data), "\n"), 10, 64)
		if oneField := perr == nil && string(data) == fmt.Sprintf("%d\n", n); oneField {
			if err != nil {
				t.Fatalf("one-field record %q refused: %v", data, err)
			}
			if epoch, led := e.State(); epoch != n || led {
				t.Fatalf("one-field record %q reads as %d, led %v; want %d, not led", data, epoch, led, n)
			}
		}
		if err != nil {
			return
		}
		epoch, led := e.State()
		store := e.Store
		if lead {
			store = e.Lead
		}
		if err := store(next); err != nil {
			t.Fatal(err)
		}
		if next > epoch {
			epoch, led = next, lead
		}
		again, err := OpenEpochFile(vfs.OS, path)
		if err != nil {
			t.Fatalf("reopening after storing %d (lead %v) over %q: %v", next, lead, data, err)
		}
		if ge, gl := again.State(); ge != epoch || gl != led {
			t.Fatalf("after storing %d (lead %v) over %q: reopened %d, led %v; want %d, led %v", next, lead, data, ge, gl, epoch, led)
		}
	})
}

// FuzzReplStream feeds arbitrary bytes to the replication stream
// decoder, mirroring the WAL's FuzzSegmentRead. The contract under any
// mutation: the reader yields frames then io.EOF, a clean truncation
// (ErrTorn), or a typed *CorruptError — never a panic, a hang, or a
// silently wrong frame. "Never silently wrong" is checked by
// re-encoding: whatever was accepted must re-serialize to exactly the
// byte prefix it consumed.
func FuzzReplStream(f *testing.F) {
	// Seed: a healthy stream with data frames and a heartbeat.
	seed := AppendHeader(nil, 3, 17)
	seed = AppendFrame(seed, FrameData, 17, []byte(`{"agent":"a","seq":1,"samples":[{"node":1,"job":7,"t":1700000000,"w":212.5}]}`))
	seed = AppendFrame(seed, FrameData, 18, []byte{})
	seed = AppendFrame(seed, FrameHeartbeat, 18, HeartbeatBody(18, 3))
	f.Add(seed)
	f.Add(seed[:len(seed)-3])             // torn tail
	f.Add(AppendHeader(nil, 1, 1))        // header only
	f.Add([]byte{})                       // empty
	f.Add([]byte("PWRREP1\n"))            // truncated header
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		typedOK := func(err error) bool {
			var ce *CorruptError
			return errors.Is(err, ErrTorn) || errors.As(err, &ce)
		}
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			if !typedOK(err) {
				t.Fatalf("untyped error from NewStreamReader: %v", err)
			}
			return
		}
		var frames []Frame
		for {
			fr, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !typedOK(err) {
					t.Fatalf("untyped error from Next: %v", err)
				}
				break
			}
			fr.Body = append([]byte(nil), fr.Body...)
			frames = append(frames, fr)
		}
		off := sr.off
		if off < headerSize || off > int64(len(data)) {
			t.Fatalf("consumed offset %d out of range [%d, %d]", off, headerSize, len(data))
		}
		// Re-encode what was accepted: it must reproduce data[:off]
		// exactly — the reader cannot have invented or altered a frame.
		enc := AppendHeader(nil, sr.Epoch(), sr.startLSN)
		for _, fr := range frames {
			enc = AppendFrame(enc, fr.Type, fr.LSN, fr.Body)
		}
		if !bytes.Equal(enc, data[:off]) {
			t.Fatalf("re-encoded frames do not match the consumed prefix:\n got %x\nwant %x", enc, data[:off])
		}
	})
}
