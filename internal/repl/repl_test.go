package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcpower/internal/vfs"
	"hpcpower/internal/wal"
)

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	stream = AppendHeader(stream, 7, 100)
	bodies := [][]byte{[]byte(`{"agent":"a","seq":1}`), {}, bytes.Repeat([]byte("x"), 4096)}
	for i, b := range bodies {
		stream = AppendFrame(stream, FrameData, 100+uint64(i), b)
	}
	stream = AppendFrame(stream, FrameHeartbeat, 102, HeartbeatBody(102, 7))

	sr, err := NewStreamReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Epoch() != 7 || sr.startLSN != 100 {
		t.Fatalf("header = (epoch %d, start %d), want (7, 100)", sr.Epoch(), sr.startLSN)
	}
	for i, want := range bodies {
		fr, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type != FrameData || fr.LSN != 100+uint64(i) || !bytes.Equal(fr.Body, want) {
			t.Fatalf("frame %d = {%d %d %q}, want data lsn %d body %q", i, fr.Type, fr.LSN, fr.Body, 100+i, want)
		}
	}
	hb, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	wm, epoch, ok := DecodeHeartbeat(hb.Body)
	if hb.Type != FrameHeartbeat || !ok || wm != 102 || epoch != 7 {
		t.Fatalf("heartbeat = {%d wm %d epoch %d ok %v}", hb.Type, wm, epoch, ok)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}

	// A mid-frame cut is torn, not corrupt, not EOF.
	srt, err := NewStreamReader(bytes.NewReader(stream[:len(stream)-5]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := srt.Next()
		if err == nil {
			continue
		}
		if !errors.Is(err, wal.ErrTorn) {
			t.Fatalf("truncated stream error = %v, want torn", err)
		}
		break
	}

	// A flipped body bit is corrupt.
	mut := append([]byte(nil), stream...)
	mut[len(mut)-1] ^= 0x01
	srm, _ := NewStreamReader(bytes.NewReader(mut))
	var lastErr error
	for {
		_, err := srm.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	var ce *wal.CorruptError
	if !errors.As(lastErr, &ce) {
		t.Fatalf("mutated stream error = %v, want *wal.CorruptError", lastErr)
	}
}

// TestStreamReaderReusesBody: Next decodes every frame into one buffer,
// so once it has grown to the largest body a frame costs no allocation.
func TestStreamReaderReusesBody(t *testing.T) {
	const frames = 100
	stream := AppendHeader(nil, 1, 1)
	for i := 0; i < frames; i++ {
		stream = AppendFrame(stream, FrameData, uint64(1+i), bytes.Repeat([]byte{byte(i)}, 4096-i))
	}
	sr, err := NewStreamReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	var readErr error
	// AllocsPerRun calls once before it counts: that call grows the
	// buffer to the first, largest body.
	allocs := testing.AllocsPerRun(frames-1, func() {
		fr, err := sr.Next()
		if err == nil && (fr.LSN != uint64(1+read) || len(fr.Body) != 4096-read) {
			err = fmt.Errorf("frame %d: lsn %d, %d body bytes", read, fr.LSN, len(fr.Body))
		}
		if err != nil && readErr == nil {
			readErr = err
		}
		read++
	})
	if readErr != nil {
		t.Fatal(readErr)
	}
	if _, err := sr.Next(); err != io.EOF || read != frames {
		t.Fatalf("read %d frames, then %v; want %d, then io.EOF", read, err, frames)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per frame, want 0", allocs)
	}
}

// BenchmarkStreamRead times the follower's decode of a catch-up burst:
// the header, 1,000 data frames of an ingest record's size (≈ 24 KB)
// and a heartbeat after every 100.
func BenchmarkStreamRead(b *testing.B) {
	stream := AppendHeader(nil, 1, 1)
	body := bytes.Repeat([]byte(`{"node":17,"job":42,"t":1700000000,"w":151.2},`), 24<<10/46)
	for lsn := uint64(1); lsn <= 1000; lsn++ {
		stream = AppendFrame(stream, FrameData, lsn, body)
		if lsn%100 == 0 {
			stream = AppendFrame(stream, FrameHeartbeat, lsn, HeartbeatBody(lsn, 1))
		}
	}
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	r := bytes.NewReader(stream)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(stream)
		sr, err := NewStreamReader(r)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := sr.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestEpochFilePersistsForwardOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "EPOCH")
	e, err := OpenEpochFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d, want 0", e.Epoch())
	}
	if err := e.Store(3); err != nil {
		t.Fatal(err)
	}
	if err := e.Store(2); err != nil { // backwards: silently ignored
		t.Fatal(err)
	}
	if e.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", e.Epoch())
	}
	// Survives a reopen (simulated restart of a fenced primary).
	e2, err := OpenEpochFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Epoch() != 3 {
		t.Fatalf("reopened epoch = %d, want 3", e2.Epoch())
	}
	// Garbage in the file is refused, not misread as epoch 0, and so is
	// a led epoch past the epoch.
	for _, bad := range []string{"not-a-number\n", "3 4\n", "1 1 1\n", "\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenEpochFile(vfs.OS, path); err == nil {
			t.Fatalf("corrupt epoch file %q accepted", bad)
		}
	}
}

// TestEpochFileLed: Store adopts an epoch as a follower and keeps the
// led epoch; Lead records leading it; the record survives a reopen, and
// the one-field form reads as an epoch this node did not lead.
func TestEpochFileLed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "EPOCH")
	e, err := OpenEpochFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	state := func(e *EpochFile, epoch uint64, led bool) {
		t.Helper()
		if ge, gl := e.State(); ge != epoch || gl != led {
			t.Fatalf("State() = %d, %v; want %d, %v", ge, gl, epoch, led)
		}
	}
	state(e, 0, false)
	for _, step := range []struct {
		lead  bool
		epoch uint64
		led   bool
	}{{true, 1, true}, {false, 2, false}, {true, 3, true}, {true, 3, true}, {false, 3, true}, {false, 5, false}} {
		store := e.Store
		if step.lead {
			store = e.Lead
		}
		if err := store(step.epoch); err != nil {
			t.Fatal(err)
		}
		state(e, step.epoch, step.led)
		again, err := OpenEpochFile(vfs.OS, path)
		if err != nil {
			t.Fatal(err)
		}
		state(again, step.epoch, step.led)
	}
	if err := os.WriteFile(path, []byte("7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := OpenEpochFile(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	state(old, 7, false)
}

// testSource builds a Source over an in-memory record slice.
func testSource(t *testing.T, records map[uint64][]byte, holds *sync.Map) *Source {
	t.Helper()
	return NewSource(SourceConfig{
		Epoch: func() uint64 { return 1 },
		Read: func(from, to uint64, emit func(lsn uint64, body []byte) error) error {
			for lsn := from; lsn <= to; lsn++ {
				b, ok := records[lsn]
				if !ok {
					continue
				}
				if err := emit(lsn, b); err != nil {
					return err
				}
			}
			return nil
		},
		Hold: func(id string, lsn uint64) {
			if holds != nil {
				holds.Store(id, lsn)
			}
		},
		HeartbeatEvery: 20 * time.Millisecond,
	})
}

func TestSourceAcksHoldsAndWaitReplicated(t *testing.T) {
	var holds sync.Map
	s := testSource(t, nil, &holds)

	// No followers: semi-sync degrades to async, WaitReplicated returns.
	if err := s.WaitReplicated(context.Background(), 10); err != nil {
		t.Fatal(err)
	}

	s.Register("a", 0)
	s.Register("b", 5)
	if got, n := s.MinAcked(); got != 0 || n != 2 {
		t.Fatalf("MinAcked = (%d, %d), want (0, 2)", got, n)
	}
	if v, _ := holds.Load("b"); v.(uint64) != 5 {
		t.Fatalf("hold for b = %v, want 5", v)
	}

	done := make(chan error, 1)
	go func() { done <- s.WaitReplicated(context.Background(), 10) }()
	s.Ack("a", 10)
	select {
	case err := <-done:
		t.Fatalf("WaitReplicated returned early (%v): follower b has not acked", err)
	case <-time.After(30 * time.Millisecond):
	}
	s.Ack("b", 12)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitReplicated never woke after all acks")
	}
	if v, _ := holds.Load("a"); v.(uint64) != 10 {
		t.Fatalf("hold for a = %v, want 10", v)
	}

	// A deadline cuts the wait loose with a wrapped context error.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.WaitReplicated(ctx, 99); err == nil {
		t.Fatal("WaitReplicated beat an unacked lsn")
	}

	// Acks never regress.
	s.Ack("a", 4)
	if got, _ := s.MinAcked(); got != 10 {
		t.Fatalf("MinAcked after stale ack = %d, want 10", got)
	}
}

func TestSourceStreamTo(t *testing.T) {
	records := map[uint64][]byte{}
	for lsn := uint64(1); lsn <= 20; lsn++ {
		if lsn%5 == 0 {
			continue // tombstoned on the primary: never streamed
		}
		records[lsn] = []byte(fmt.Sprintf("rec-%d", lsn))
	}
	s := testSource(t, records, nil)
	var reads atomic.Int64 // one ObserveBurst per catch-up burst
	s.cfg.ObserveBurst = func(_ int64, d time.Duration) {
		if d < 0 {
			t.Errorf("ObserveBurst(_, %v)", d)
		}
		reads.Add(1)
	}
	s.Advance(12)

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamErr := make(chan error, 1)
	go func() { streamErr <- s.StreamTo(ctx, pw, nil, 3) }()
	defer pw.Close()

	sr, err := NewStreamReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Epoch() != 1 || sr.startLSN != 3 {
		t.Fatalf("header = (%d, %d), want (1, 3)", sr.Epoch(), sr.startLSN)
	}

	// Catch-up covers [3, 12] minus the tombstoned LSNs; a later Advance
	// picks up [13, 18] live on the same connection.
	want1 := []uint64{3, 4, 6, 7, 8, 9, 11, 12}
	want2 := []uint64{13, 14, 16, 17, 18}
	var got []uint64
	advanced := false
	for len(got) < len(want1)+len(want2) {
		fr, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == FrameHeartbeat {
			continue
		}
		if string(fr.Body) != fmt.Sprintf("rec-%d", fr.LSN) {
			t.Fatalf("lsn %d carried body %q", fr.LSN, fr.Body)
		}
		got = append(got, fr.LSN)
		if len(got) == len(want1) && !advanced {
			advanced = true
			s.Advance(18)
		}
	}
	wantAll := append(want1, want2...)
	if len(got) != len(wantAll) {
		t.Fatalf("streamed %v, want %v", got, wantAll)
	}
	for i := range wantAll {
		if got[i] != wantAll[i] {
			t.Fatalf("streamed %v, want %v", got, wantAll)
		}
	}
	// The streamed counter is published before the heartbeat that
	// follows a catch-up, so read up to the next heartbeat first.
	for {
		fr, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == FrameHeartbeat {
			break
		}
	}
	if s.Streamed() != int64(len(wantAll)) {
		t.Fatalf("Streamed() = %d, want %d", s.Streamed(), len(wantAll))
	}
	if got := reads.Load(); got != 2 {
		t.Fatalf("ObserveBurst ran %d times, want once per burst ([3,12] and [13,18])", got)
	}

	cancel()
	if err := <-streamErr; err != context.Canceled {
		t.Fatalf("StreamTo exit = %v, want context.Canceled", err)
	}
}
