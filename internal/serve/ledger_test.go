package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hpcpower/internal/block"
	"hpcpower/internal/elect"
	"hpcpower/internal/mlearn"
	"hpcpower/internal/repl"
	"hpcpower/internal/vfs"
	"hpcpower/internal/wal"
)

// ledgerRow is one persisted or wire format that carries a version
// marker: a magic's digit or byte, a JSON field, or a field count.
type ledgerRow struct {
	format  string // how the reader's version errors name it
	first   int    // the lowest version the marker can express
	written int
	before  int   // the version written before this one (0: none)
	reads   []int // oldest first
	// restore reads the pinned fixture of version v, one the reader
	// reads, and fails t unless it restores.
	restore func(t *testing.T, v int)
	// craft makes an input of version v, one the reader does not read,
	// and returns the reader's error.
	craft func(t *testing.T, v int) error
	// leftovers are inputs with no version this build reads, by name.
	leftovers map[string]func(t *testing.T) error
}

// TestFormatLedger states the version rule once: a build reads the
// version of a format it writes and the one before it, and refuses any
// other by naming the versions it reads. A writer bump edits its row in
// the same change: the old version becomes before, and the version
// before it leaves reads along with its fixture and its reader branch.
// The WAL record body and the range body carry no version; they stay
// pinned by TestRecoverParentWrittenWAL and the range_*.json fixtures.
func TestFormatLedger(t *testing.T) {
	for _, row := range formatLedger() {
		t.Run(row.format, func(t *testing.T) {
			allowed := []int{row.before, row.written}
			if len(row.reads) == 0 || !slices.IsSorted(row.reads) || row.reads[len(row.reads)-1] != row.written ||
				slices.ContainsFunc(row.reads, func(v int) bool { return !slices.Contains(allowed, v) }) {
				t.Fatalf("reads versions %v but writes %d after %d: a build reads what it writes and the one before", row.reads, row.written, row.before)
			}
			phrase := "this build reads version " + fmt.Sprint(row.reads[0])
			if len(row.reads) == 2 {
				phrase = fmt.Sprintf("this build reads versions %d and %d", row.reads[0], row.reads[1])
			}
			for _, v := range row.reads {
				t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) { row.restore(t, v) })
			}
			for v := row.first; v <= row.written+1; v++ {
				if slices.Contains(row.reads, v) {
					continue
				}
				want := fmt.Sprintf("%s version %d, %s", row.format, v, phrase)
				if err := row.craft(t, v); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("version %d: %v, want an error naming %q", v, err, want)
				}
			}
			for name, read := range row.leftovers {
				if err := read(t); err == nil || !strings.Contains(err.Error(), row.format+": "+phrase) {
					t.Errorf("%s: %v, want an error naming %q", name, err, phrase)
				}
			}
		})
	}
}

func formatLedger() []ledgerRow {
	v3Snap := filepath.Join("testdata", "snap_v3", "data", "snap-00000000000000000024.snap")
	segment := filepath.Join("testdata", "wal_pr11", "wal", "wal-00000000000000000001.seg")
	// A stream of epoch 3 from LSN 17: a data frame and a heartbeat.
	const stream = "PWRREP1\n\x03\x00\x00\x00\x00\x00\x00\x00\x11\x00\x00\x00\x00\x00\x00\x00" +
		"\x11\x00\x00\x00\x00\x00\x00\x00\t\x00\x00\x00\x8a\xe3ze\x01{\"seq\":1}" +
		"\x11\x00\x00\x00\x00\x00\x00\x00\x10\x00\x00\x00\x7f\xb9JZ\x02\x11\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00"
	// A tree that splits on user u001.
	const model = `{"format":"hpcpower-bdt","version":1,"params":{"MaxDepth":22,"MinLeaf":1},"fallback":150,` +
		`"nodes":[{"leaf":false,"users":["u001"],"l":1,"r":2},{"leaf":true,"value":212.5,"n":3,"l":0,"r":0},{"leaf":true,"value":98,"n":2,"l":0,"r":0}]}`
	// recoverPayload starts a node over a data dir whose one snapshot
	// carries payload.
	recoverPayload := func(t *testing.T, payload []byte) error {
		dir := t.TempDir()
		if err := wal.WriteSnapshot(dir, 7, payload); err != nil {
			t.Fatal(err)
		}
		_, _, err := testNode{dir: dir}.tryStart(t)
		return err
	}
	return []ledgerRow{{
		format: "segment", written: 1, reads: []int{1},
		restore: func(t *testing.T, _ int) {
			l, err := wal.Open(copyFixture(t, filepath.Dir(segment)), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if st := l.Stats(); st.RecoveredRecords != 8 || st.TruncatedBytes != 0 {
				t.Fatalf("opened %+v, want 8 records and nothing truncated", st)
			}
		},
		craft: func(t *testing.T, v int) error {
			dir := t.TempDir()
			writeVersioned(t, segment, filepath.Join(dir, filepath.Base(segment)), 6, byte('0'+v))
			_, err := wal.Open(dir, wal.Options{})
			return err
		},
	}, {
		format: "snapshot file", written: 1, reads: []int{1},
		restore: func(t *testing.T, _ int) {
			if lsn, payload, err := wal.ReadSnapshot(vfs.OS, v3Snap); err != nil || lsn != 24 || !bytes.HasPrefix(payload, []byte(snapImageMagic)) {
				t.Fatalf("lsn %d, err %v", lsn, err)
			}
		},
		// Another version is skipped and counted, as a damaged file is.
		craft: func(t *testing.T, v int) error {
			dir := copyFixture(t, filepath.Dir(v3Snap))
			newer := filepath.Join(dir, "snap-00000000000000000099.snap")
			writeVersioned(t, v3Snap, newer, 6, byte('0'+v))
			if lsn, _, found, skipped, err := wal.LatestSnapshot(dir); err != nil || !found || lsn != 24 || len(skipped) != 1 {
				t.Errorf("version %d: latest snapshot %d (found %v, skipped %v, err %v), want 24 past one skipped", v, lsn, found, skipped, err)
			}
			_, _, err := wal.ReadSnapshot(vfs.OS, newer)
			return err
		},
	}, {
		format: "snapshot image", written: 4, before: 3, reads: []int{3, 4},
		restore: func(t *testing.T, v int) {
			restoreFixture(t, fmt.Sprintf("snap_v%d", v), 24)
		},
		craft: func(t *testing.T, v int) error {
			return recoverPayload(t, append([]byte(snapImageMagic), byte(v), 0, 0, 0, 0))
		},
		leftovers: map[string]func(t *testing.T) error{
			// What builds before the binary image wrote: the whole image
			// as JSON.
			"JSON image": func(t *testing.T) error {
				_, payload, err := wal.ReadSnapshot(vfs.OS, v3Snap)
				if err != nil {
					t.Fatal(err)
				}
				img, err := decodeSnapshotImage(payload)
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.Marshal(img)
				if err != nil {
					t.Fatal(err)
				}
				return recoverPayload(t, js)
			},
			"garbage": func(*testing.T) error {
				_, err := decodeSnapshotImage([]byte("garbage"))
				return err
			},
		},
	}, {
		format: "block file", written: 2, before: 1, reads: []int{1, 2},
		restore: func(t *testing.T, v int) {
			raw, err := os.ReadFile(fmt.Sprintf("../block/testdata/raw_v%d.blk", v))
			if err != nil {
				t.Fatal(err)
			}
			path := writeFile(t, "raw-0000000000000000.blk", string(raw))
			s, err := block.Open(block.Config{Dir: filepath.Dir(path), WindowSeconds: 7200})
			if err != nil {
				t.Fatal(err)
			}
			if pts, _, err := s.Querier().Range(0, 0, 0); err != nil || len(pts) != 120 {
				t.Fatalf("node 0: %d points, err %v; want 120", len(pts), err)
			}
		},
		craft: func(t *testing.T, v int) error {
			path := filepath.Join(t.TempDir(), "raw-0000000000000000.blk")
			writeVersioned(t, "../block/testdata/raw_v2.blk", path, 4, byte(v))
			_, err := block.OpenBlock(vfs.OS, path)
			return err
		},
	}, {
		format: "stream", written: 1, reads: []int{1},
		restore: func(t *testing.T, _ int) {
			sr, err := repl.NewStreamReader(strings.NewReader(stream))
			if err != nil || sr.Epoch() != 3 {
				t.Fatalf("header: %v", err)
			}
			data, err := sr.Next()
			if err != nil || data.Type != repl.FrameData || data.LSN != 17 || string(data.Body) != `{"seq":1}` {
				t.Fatalf("data frame %+v, err %v", data, err)
			}
			hb, err := sr.Next()
			if wm, epoch, ok := repl.DecodeHeartbeat(hb.Body); err != nil || hb.Type != repl.FrameHeartbeat || !ok || wm != 17 || epoch != 3 {
				t.Fatalf("heartbeat %+v, err %v", hb, err)
			}
			if _, err := sr.Next(); err != io.EOF {
				t.Fatalf("after the heartbeat: %v, want EOF", err)
			}
		},
		craft: func(_ *testing.T, v int) error {
			_, err := repl.NewStreamReader(strings.NewReader(stream[:6] + fmt.Sprint(v) + stream[7:]))
			return err
		},
	}, {
		format: "epoch file", first: 1, written: 2, before: 1, reads: []int{1, 2},
		restore: func(t *testing.T, v int) {
			ef, err := repl.OpenEpochFile(vfs.OS, writeFile(t, "EPOCH", []string{1: "7\n", 2: "7 7\n"}[v]))
			if err != nil {
				t.Fatal(err)
			}
			// The one-field form does not say the node led its epoch.
			if epoch, led := ef.State(); epoch != 7 || led != (v == 2) {
				t.Fatalf("epoch %d, led %v", epoch, led)
			}
		},
		craft: func(t *testing.T, v int) error {
			_, err := repl.OpenEpochFile(vfs.OS, writeFile(t, "EPOCH", strings.Repeat("7 ", v)+"\n"))
			return err
		},
	}, {
		format: "elect state", first: 1, written: 3, before: 1, reads: []int{1, 3},
		restore: func(t *testing.T, v int) {
			path := writeFile(t, "ELECT", []string{1: "5\n", 3: "5 2 9\n"}[v])
			sf, err := elect.OpenStateFile(vfs.OS, path)
			if err != nil {
				t.Fatal(err)
			}
			if v == 1 {
				// The pre-frontier form reads as frontier 0/0, and the
				// next note rewrites it in the current form.
				if fe, fl := sf.MaxFrontier(); sf.Promised() != 5 || fe != 0 || fl != 0 {
					t.Fatalf("promised %d, frontier %d/%d", sf.Promised(), fe, fl)
				}
				if err := sf.NoteFrontier(2, 9); err != nil {
					t.Fatal(err)
				}
				if sf, err = elect.OpenStateFile(vfs.OS, path); err != nil {
					t.Fatal(err)
				}
			}
			if fe, fl := sf.MaxFrontier(); sf.Promised() != 5 || fe != 2 || fl != 9 {
				t.Fatalf("promised %d, frontier %d/%d", sf.Promised(), fe, fl)
			}
		},
		craft: func(t *testing.T, v int) error {
			_, err := elect.OpenStateFile(vfs.OS, writeFile(t, "ELECT", strings.Repeat("5 ", v)+"\n"))
			return err
		},
	}, {
		format: "BDT model", written: 1, reads: []int{1},
		restore: func(t *testing.T, _ int) {
			m, err := mlearn.LoadBDT(strings.NewReader(model))
			if err != nil {
				t.Fatal(err)
			}
			if w := m.Predict(mlearn.Features{User: "u001", Nodes: 2, WallHours: 1}); w != 212.5 {
				t.Fatalf("u001 predicted %v W, want 212.5", w)
			}
		},
		craft: func(_ *testing.T, v int) error {
			_, err := mlearn.LoadBDT(strings.NewReader(strings.Replace(model, `"version":1`, fmt.Sprintf(`"version":%d`, v), 1)))
			return err
		},
	}}
}

// copyFixture copies the files of the fixture directory src into a new
// temp dir and returns it.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range files {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeVersioned copies the fixture src to dst with its version marker,
// the byte at offset at, set to version.
func writeVersioned(t *testing.T, src, dst string, at int, version byte) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	b[at] = version
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeFile writes data as a file of that name in a new temp dir and
// returns its path.
func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
