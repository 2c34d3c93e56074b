package block

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"
)

// quarantineSuffix marks a block file that failed integrity checks. The
// rename is atomic, the catalog entry is dropped in the same critical
// section, and no reader ever trusts the name again — but the bytes
// survive for forensics (and a heroic manual repair).
const quarantineSuffix = ".quarantine"

// CorruptBlockError ties a corruption condition to the block it was
// detected in, so the query path can quarantine exactly that block and
// retry against the surviving tiers. It wraps ErrCorrupt.
type CorruptBlockError struct {
	Block  *BlockInfo
	Reason string
}

func (e *CorruptBlockError) Error() string {
	return fmt.Sprintf("block: corrupt block %s: %s", filepath.Base(e.Block.Path), e.Reason)
}

func (e *CorruptBlockError) Unwrap() error { return ErrCorrupt }

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Blocks      int           `json:"blocks"`      // blocks verified
	Chunks      int           `json:"chunks"`      // chunk CRCs re-checked
	Corrupt     int           `json:"corrupt"`     // blocks that failed verification
	Quarantined int           `json:"quarantined"` // blocks moved aside this pass
	Duration    time.Duration `json:"duration_ns"`
}

// Scrub re-verifies every cataloged block end to end — trailer, index,
// and each chunk's CRC — and quarantines the ones that fail, returning
// a report. Reads race no writers (blocks are immutable), so the scrub
// takes no locks while hashing; corrupt blocks are moved aside under
// the usual catalog locking. A transient read error skips the block
// (it is re-checked next pass) rather than condemning it.
func (s *Store) Scrub() ScrubReport {
	start := time.Now()
	var rep ScrubReport
	s.mu.RLock()
	var all []*BlockInfo
	for t := range s.blocks {
		for _, b := range s.blocks[t] {
			all = append(all, b)
		}
	}
	s.mu.RUnlock()
	for _, b := range all {
		rep.Blocks++
		corrupt, chunks := s.verifyBlock(b)
		rep.Chunks += chunks
		if corrupt != "" {
			rep.Corrupt++
			s.scrubCorrupt.Add(1)
			if s.quarantine(b, corrupt) {
				rep.Quarantined++
			}
		}
	}
	rep.Duration = time.Since(start)
	s.scrubRuns.Add(1)
	s.scrubLastUnix.Store(time.Now().Unix())
	return rep
}

// verifyBlock re-validates one block file. It returns a non-empty
// reason when the bytes are provably wrong, and the number of chunk
// CRCs checked. Transient I/O errors return no reason — never condemn
// a block the disk would not let us read.
func (s *Store) verifyBlock(b *BlockInfo) (reason string, chunks int) {
	if _, err := OpenBlock(s.fsys, b.Path); err != nil {
		if errors.Is(err, ErrCorrupt) {
			return err.Error(), 0
		}
		return "", 0
	}
	r, err := openBlockReader(s.fsys, b)
	if err != nil {
		return "", 0
	}
	defer r.close()
	for _, e := range b.Series {
		if _, err := r.chunk(e); err != nil {
			if errors.Is(err, ErrCorrupt) {
				return err.Error(), chunks
			}
			return "", chunks
		}
		chunks++
	}
	return "", chunks
}

// quarantine atomically moves a corrupt block out of service: rename to
// *.quarantine and drop the catalog entry as one step under the seal
// lock (so no concurrent flush re-publishes the window while the rename
// is in flight). Returns false if another caller already removed it.
func (s *Store) quarantine(b *BlockInfo, reason string) bool {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	s.mu.Lock()
	cur, ok := s.blocks[b.Tier][b.WindowStart]
	if !ok || cur != b {
		s.mu.Unlock()
		return false
	}
	delete(s.blocks[b.Tier], b.WindowStart)
	s.mu.Unlock()
	s.quarantinePath(b.Path)
	_ = reason // carried by the caller's error/log; the rename is the record on disk
	return true
}

// quarantinePath renames one file aside, counting it even if the rename
// fails (the file may already be gone — retention races are benign).
func (s *Store) quarantinePath(path string) {
	if err := s.fsys.Rename(path, path+quarantineSuffix); err == nil {
		s.quarantineNow.Add(1)
	}
	s.quarantined.Add(1)
	// Not a publish: a rename the crash undoes is redone by the next
	// Open, which finds the block corrupt again.
	_ = s.fsys.SyncDir(filepath.Dir(path))
}
