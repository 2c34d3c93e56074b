// Package elect implements heartbeat-based failure detection and
// witness-quorum leader election for a primary/standby/witness group.
// It is dependency-free (stdlib only) and deliberately small: safety
// never rests on the lease clock — it rests on the fenced, forward-only
// epoch. A lease only decides *liveness* (when a node may ack and when
// a standby may try to take over); the epoch decides *correctness* (at
// most one leader can ever be granted a given epoch, because every
// voter persists the highest epoch it has promised before replying).
package elect

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Message size and field bounds: every decoder rejects input outside
// these limits so a fuzzer (or a confused peer) can never make a node
// allocate unboundedly or carry garbage identities into its state.
const (
	maxMessageBytes = 4096
	maxIDLen        = 256
	maxURLLen       = 2048
)

var errTooLarge = errors.New("elect: message too large")

// HeartbeatRequest is sent by the leader to every peer each tick. Epoch
// is the leader's current fencing epoch. FrontierEpoch/FrontierLSN carry
// the leader's committed data frontier — the highest (epoch, LSN) it has
// released ingest acks through — so even a data-less witness learns (and
// persists) how far the group's acked history reaches, and can refuse to
// elect a candidate that would roll it back.
type HeartbeatRequest struct {
	From          string `json:"from"`
	URL           string `json:"url"`
	Epoch         uint64 `json:"epoch"`
	FrontierEpoch uint64 `json:"frontier_epoch,omitempty"`
	FrontierLSN   uint64 `json:"frontier_lsn,omitempty"`
}

// HeartbeatResponse acks (or refuses) a heartbeat. OK is true when the
// sender's epoch is still the highest the responder has promised; a
// false OK carries the higher promised epoch and, when known, the
// leader that owns it — the deposed sender uses that hint to rejoin.
type HeartbeatResponse struct {
	From      string `json:"from"`
	Epoch     uint64 `json:"epoch"`
	OK        bool   `json:"ok"`
	LeaderID  string `json:"leader_id,omitempty"`
	LeaderURL string `json:"leader_url,omitempty"`
}

// VoteRequest asks a peer to promise epoch Epoch to the candidate.
// FrontierEpoch/FrontierLSN are the candidate's committed data frontier;
// a voter refuses any candidate whose frontier is lexicographically
// behind the highest frontier the voter has seen (its own, or one
// learned from leader heartbeats) — the Raft §5.4.1 up-to-dateness rule
// adapted for a data-less witness. Without it a freshly-restarted stale
// node could win an election and make the data-holder drop acked
// records on rejoin.
type VoteRequest struct {
	From          string `json:"from"`
	URL           string `json:"url"`
	Epoch         uint64 `json:"epoch"`
	FrontierEpoch uint64 `json:"frontier_epoch,omitempty"`
	FrontierLSN   uint64 `json:"frontier_lsn,omitempty"`
}

// VoteResponse grants or refuses a promise. A voter grants Epoch only
// if it is strictly above every epoch it has ever promised, and it
// fsyncs the new promise before replying — so each epoch is granted to
// at most one candidate across crashes and restarts.
type VoteResponse struct {
	From      string `json:"from"`
	Epoch     uint64 `json:"epoch"`
	Granted   bool   `json:"granted"`
	LeaderID  string `json:"leader_id,omitempty"`
	LeaderURL string `json:"leader_url,omitempty"`
}

func checkID(field, v string) error {
	if v == "" {
		return fmt.Errorf("elect: missing %s", field)
	}
	if len(v) > maxIDLen {
		return fmt.Errorf("elect: %s too long (%d bytes)", field, len(v))
	}
	return nil
}

func checkURL(field, v string) error {
	if len(v) > maxURLLen {
		return fmt.Errorf("elect: %s too long (%d bytes)", field, len(v))
	}
	return nil
}

// message is a pointer to an election message type that validates
// itself once decoded.
type message[M any] interface {
	*M
	check() error
}

// decode parses and validates one message of type M, named what in its
// errors. Arbitrary input yields a value or an error — never a panic;
// a message that fails its check decodes to the zero value.
func decode[M any, P message[M]](data []byte, what string) (M, error) {
	var m M
	if len(data) > maxMessageBytes {
		return m, errTooLarge
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("elect: bad %s: %w", what, err)
	}
	if err := P(&m).check(); err != nil {
		var zero M
		return zero, err
	}
	return m, nil
}

// DecodeHeartbeatRequest parses and validates a heartbeat request.
func DecodeHeartbeatRequest(data []byte) (HeartbeatRequest, error) {
	return decode[HeartbeatRequest](data, "heartbeat request")
}

// DecodeHeartbeatResponse parses and validates a heartbeat response.
func DecodeHeartbeatResponse(data []byte) (HeartbeatResponse, error) {
	return decode[HeartbeatResponse](data, "heartbeat response")
}

// DecodeVoteRequest parses and validates a vote request.
func DecodeVoteRequest(data []byte) (VoteRequest, error) {
	return decode[VoteRequest](data, "vote request")
}

// DecodeVoteResponse parses and validates a vote response.
func DecodeVoteResponse(data []byte) (VoteResponse, error) {
	return decode[VoteResponse](data, "vote response")
}

func (m *HeartbeatRequest) check() error { return checkSender(m.From, m.URL) }

func (m *HeartbeatResponse) check() error {
	return checkReply(m.From, m.LeaderID, m.LeaderURL)
}

func (m *VoteRequest) check() error {
	if m.Epoch == 0 {
		return errors.New("elect: vote request for epoch 0")
	}
	return checkSender(m.From, m.URL)
}

func (m *VoteResponse) check() error { return checkReply(m.From, m.LeaderID, m.LeaderURL) }

// checkSender checks a request's sender: its ID and its URL.
func checkSender(from, url string) error {
	if err := checkID("from", from); err != nil {
		return err
	}
	return checkURL("url", url)
}

// checkReply checks a response's sender and its optional leader hint.
func checkReply(from, leaderID, leaderURL string) error {
	if err := checkID("from", from); err != nil {
		return err
	}
	if leaderID != "" {
		if err := checkID("leader_id", leaderID); err != nil {
			return err
		}
	}
	return checkURL("leader_url", leaderURL)
}
