package repl

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

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
