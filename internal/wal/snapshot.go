package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hpcpower/internal/vfs"
)

// Snapshot file layout (snap-<LSN>.snap):
//
//	magic[8] lsn[u64le] payloadLen[u64le] crc[u32le] payload
//
// A snapshot is published by vfs.WriteFileAtomic, so a crash mid-write
// leaves either the previous snapshot or a stray temp file (swept at the
// next open) — never a half-visible one. The LSN records the applied
// watermark the payload state corresponds to: recovery loads the latest
// CRC-valid snapshot and replays the WAL strictly after it.
const (
	snapMagic      = "PWRSNP1\n"
	snapHeaderSize = 8 + 8 + 8 + 4
	snapPrefix     = "snap-"
	snapSuffix     = ".snap"
)

func snapshotName(lsn uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, lsn, snapSuffix)
}

// WriteSnapshot atomically persists a snapshot payload taken at lsn.
func WriteSnapshot(dir string, lsn uint64, payload []byte) error {
	return WriteSnapshotFS(vfs.OS, dir, lsn, payload)
}

// WriteSnapshotFS is WriteSnapshot through an explicit filesystem. The
// previous snapshot is untouched until the rename, and no failure leaves
// a temp file behind (vfs.WriteFileAtomic).
func WriteSnapshotFS(fsys vfs.FS, dir string, lsn uint64, payload []byte) error {
	hdr := make([]byte, snapHeaderSize)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(payload, crcTable))

	err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, snapshotName(lsn)), func(w io.Writer) error {
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads and verifies one snapshot file.
func ReadSnapshot(fsys vfs.FS, path string) (lsn uint64, payload []byte, err error) {
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < snapHeaderSize {
		return 0, nil, &CorruptError{Offset: 0, Reason: "bad snapshot header"}
	}
	if err := checkMagic(data[:8], snapMagic, "snapshot file"); err != nil {
		return 0, nil, err
	}
	lsn = binary.LittleEndian.Uint64(data[8:16])
	plen := binary.LittleEndian.Uint64(data[16:24])
	wantCRC := binary.LittleEndian.Uint32(data[24:28])
	body := data[snapHeaderSize:]
	if uint64(len(body)) != plen {
		return 0, nil, &CorruptError{Offset: snapHeaderSize, Reason: "snapshot payload length mismatch"}
	}
	if crc32.Checksum(body, crcTable) != wantCRC {
		return 0, nil, &CorruptError{Offset: snapHeaderSize, Reason: "snapshot crc mismatch"}
	}
	return lsn, body, nil
}

// listSnapshots returns snapshot file names sorted ascending by LSN.
func listSnapshots(fsys vfs.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), snapPrefix) && strings.HasSuffix(e.Name(), snapSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// SkippedSnapshot is a snapshot file LatestSnapshot passed over, and
// why: another version, a CRC or length mismatch, a torn header, or a
// file that went away between listing and reading.
type SkippedSnapshot struct {
	Name string
	Err  error
}

// LatestSnapshot returns the newest CRC-valid snapshot in dir, skipping
// corrupt ones and other versions — a damaged latest snapshot falls back
// to the previous one rather than failing recovery — and naming each
// file it skipped, newest first. found is false when no valid snapshot
// exists.
func LatestSnapshot(dir string) (lsn uint64, payload []byte, found bool, skipped []SkippedSnapshot, err error) {
	return LatestSnapshotFS(vfs.OS, dir)
}

// LatestSnapshotFS is LatestSnapshot through an explicit filesystem.
func LatestSnapshotFS(fsys vfs.FS, dir string) (lsn uint64, payload []byte, found bool, skipped []SkippedSnapshot, err error) {
	names, err := listSnapshots(fsys, dir)
	if err != nil {
		return 0, nil, false, nil, fmt.Errorf("wal: listing snapshots: %w", err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		l, p, rerr := ReadSnapshot(fsys, filepath.Join(dir, names[i]))
		if rerr == nil {
			return l, p, true, skipped, nil
		}
		var ve versionError
		if truncatable(rerr) || errors.As(rerr, &ve) || os.IsNotExist(rerr) {
			skipped = append(skipped, SkippedSnapshot{Name: names[i], Err: rerr})
			continue
		}
		return 0, nil, false, skipped, fmt.Errorf("wal: reading snapshot %s: %w", names[i], rerr)
	}
	return 0, nil, false, skipped, nil
}

// ReapSnapshotsFS removes all but the newest keep snapshots.
func ReapSnapshotsFS(fsys vfs.FS, dir string, keep int) (removed int, err error) {
	if keep < 1 {
		keep = 1
	}
	names, err := listSnapshots(fsys, dir)
	if err != nil {
		return 0, fmt.Errorf("wal: listing snapshots: %w", err)
	}
	for i := 0; i < len(names)-keep; i++ {
		if err := fsys.Remove(filepath.Join(dir, names[i])); err != nil {
			return removed, fmt.Errorf("wal: reaping snapshot %s: %w", names[i], err)
		}
		removed++
	}
	return removed, nil
}
