package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
)

// Snapshot payload, version 2 — what a snapshot file carries after the
// wal package's header and CRC, and what GET /v1/repl/snapshot serves:
//
//	"PSNI"  version(2)  metaLen[u32le]  meta  nodesLen[u64le]  nodes  tables
//
// meta is the snapshotImage as JSON with Store.Nodes and every job's
// Store.Jobs[i].Table left out (jobs, shard accumulators, dedup, anomaly
// state and the LSN frontiers: about a percent of the bytes); nodes is
// the rings, in the binary form tsdb.StoreState.AppendNodes documents;
// tables is the jobs' quantile tables, in the binary form
// tsdb.StoreState.AppendTables documents, running to the end of the
// payload. Version 1 is the same without nodesLen and tables, its jobs
// carrying P² estimators in the meta instead.
const (
	snapImageMagic   = "PSNI"
	snapImageVersion = 2
	snapImageHeader  = len(snapImageMagic) + 1 + 4
)

// encodeSnapshotImage is the one writer of snapshot payloads. img.Store
// must be set: the rings are what the format exists for.
func encodeSnapshotImage(img *snapshotImage) ([]byte, error) {
	meta, store := *img, *img.Store
	store.Nodes = nil
	store.Jobs = slices.Clone(store.Jobs)
	for i := range store.Jobs {
		store.Jobs[i].Table = nil
	}
	meta.Store = &store
	mj, err := json.Marshal(&meta)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, snapImageHeader+len(mj))
	out = append(out, snapImageMagic...)
	out = append(out, snapImageVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(mj)))
	out = append(out, mj...)
	out = append(out, 0, 0, 0, 0, 0, 0, 0, 0)
	nodesAt := len(out)
	out = img.Store.AppendNodes(out)
	binary.LittleEndian.PutUint64(out[nodesAt-8:], uint64(len(out)-nodesAt))
	return img.Store.AppendTables(out), nil
}

// decodeSnapshotImage is the one reader: versions 2 and 1, by their
// magic. A job from a version-1 payload has no table: restoring it seeds
// one from its P² estimators.
func decodeSnapshotImage(payload []byte) (*snapshotImage, error) {
	if len(payload) < snapImageHeader || string(payload[:len(snapImageMagic)]) != snapImageMagic {
		return nil, fmt.Errorf("snapshot image: this build reads versions 1 and %d, which start %q", snapImageVersion, snapImageMagic)
	}
	version := payload[len(snapImageMagic)]
	if version != 1 && version != snapImageVersion {
		return nil, fmt.Errorf("snapshot image version %d, this build reads versions 1 and %d", version, snapImageVersion)
	}
	img := &snapshotImage{}
	metaLen := binary.LittleEndian.Uint32(payload[snapImageHeader-4:])
	body := payload[snapImageHeader:]
	if uint64(metaLen) > uint64(len(body)) {
		return nil, fmt.Errorf("snapshot image claims %d bytes of meta, %d bytes left", metaLen, len(body))
	}
	if err := json.Unmarshal(body[:metaLen], img); err != nil {
		return nil, fmt.Errorf("snapshot image meta: %w", err)
	}
	if img.Store == nil {
		return nil, fmt.Errorf("snapshot image meta has no store")
	}
	nodes := body[metaLen:]
	if version == snapImageVersion {
		if len(nodes) < 8 || binary.LittleEndian.Uint64(nodes) > uint64(len(nodes)-8) {
			return nil, fmt.Errorf("snapshot image: nodes section length is cut short or runs past the payload")
		}
		n := binary.LittleEndian.Uint64(nodes)
		if err := img.Store.DecodeTables(nodes[8+n:]); err != nil {
			return nil, err
		}
		nodes = nodes[8 : 8+n]
	}
	if err := img.Store.DecodeNodes(nodes); err != nil {
		return nil, err
	}
	return img, nil
}
