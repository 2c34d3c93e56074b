package elect

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hpcpower/internal/vfs"
)

// StateFile persists the two durable facts election safety needs:
//
//   - the highest epoch this node has ever promised — by granting a
//     vote, by winning an election, or by accepting a leader's
//     heartbeat. A voter that crashes after granting epoch E must never
//     grant E again.
//   - the highest committed data frontier (epoch, LSN) this node has
//     seen — its own, or one learned from a leader's heartbeat. A voter
//     that has seen acked data reach (e, l) must never elect a
//     candidate behind that point, or the group would drop acked
//     records when the stale winner forces the data-holder to rejoin.
//
// Both are durable (vfs.WriteFileAtomic) before the reply that depends
// on them leaves the node, and both only move forward.
//
// File format: "promised [frontierEpoch frontierLSN]\n", versioned by
// its field count. The one-field form is the pre-frontier format and
// still parses (frontier 0,0).
type StateFile struct {
	fsys      vfs.FS
	path      string
	promised  uint64
	frontierE uint64
	frontierL uint64
}

// OpenStateFile loads the promised epoch and max-seen frontier from
// path, treating a missing file — and nothing else: a read error fails
// the open — as a node that has promised and seen nothing.
func OpenStateFile(fsys vfs.FS, path string) (*StateFile, error) {
	s := &StateFile{fsys: fsys, path: path}
	data, err := vfs.ReadFile(fsys, path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("elect: read state: %w", err)
	}
	fields := strings.Fields(string(data))
	if len(fields) != 1 && len(fields) != 3 {
		return nil, fmt.Errorf("elect: %s: elect state version %d, this build reads versions 1 and 3", path, len(fields))
	}
	vals := make([]uint64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("elect: parse state %q: %w", path, err)
		}
		vals[i] = v
	}
	s.promised = vals[0]
	if len(vals) == 3 {
		s.frontierE, s.frontierL = vals[1], vals[2]
	}
	return s, nil
}

// Promised returns the highest promised epoch.
func (s *StateFile) Promised() uint64 { return s.promised }

// MaxFrontier returns the highest committed data frontier this node has
// durably recorded, as a lexicographic (epoch, LSN) pair.
func (s *StateFile) MaxFrontier() (epoch, lsn uint64) {
	return s.frontierE, s.frontierL
}

// Store durably records a promise for epoch. Promises only move
// forward; storing an epoch at or below the current promise is a no-op,
// so a delayed or replayed message can never roll the promise back.
func (s *StateFile) Store(epoch uint64) error {
	if epoch <= s.promised {
		return nil
	}
	return s.write(epoch, s.frontierE, s.frontierL)
}

// NoteFrontier durably records that the group's acked history reaches
// (epoch, lsn). Forward-only under lexicographic order; recording a
// frontier at or behind the current one is a no-op.
func (s *StateFile) NoteFrontier(epoch, lsn uint64) error {
	if !frontierLess(s.frontierE, s.frontierL, epoch, lsn) {
		return nil
	}
	return s.write(s.promised, epoch, lsn)
}

func (s *StateFile) write(promised, fe, fl uint64) error {
	err := vfs.WriteFileAtomic(s.fsys, s.path, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d %d %d\n", promised, fe, fl)
		return err
	})
	if err != nil {
		return fmt.Errorf("elect: write state: %w", err)
	}
	s.promised, s.frontierE, s.frontierL = promised, fe, fl
	return nil
}

// frontierLess reports whether frontier (e1, l1) is strictly behind
// (e2, l2) in lexicographic order. Epoch dominates: each epoch's leader
// was elected at or past the previous epoch's acked frontier, so a
// higher-epoch frontier always covers a lower-epoch one even when the
// LSN spaces differ across leaders.
func frontierLess(e1, l1, e2, l2 uint64) bool {
	return e1 < e2 || (e1 == e2 && l1 < l2)
}
