package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Snapshot payload, version 1 — what a snapshot file carries after the
// wal package's header and CRC, and what GET /v1/repl/snapshot serves:
//
//	"PSNI"  version(1)  metaLen[u32le]  meta  nodes
//
// meta is the snapshotImage as JSON with Store.Nodes left out (jobs,
// shard accumulators, dedup, anomaly state and the LSN frontiers: about
// a percent of the bytes); nodes is the rings, in the binary form
// tsdb.StoreState.AppendNodes documents, running to the end of the
// payload. Payloads written before this format are the whole
// snapshotImage as JSON and start with '{'.
const (
	snapImageMagic   = "PSNI"
	snapImageVersion = 1
	snapImageHeader  = len(snapImageMagic) + 1 + 4
)

// encodeSnapshotImage is the one writer of snapshot payloads. img.Store
// must be set: the rings are what the format exists for.
func encodeSnapshotImage(img *snapshotImage) ([]byte, error) {
	meta, store := *img, *img.Store
	store.Nodes = nil
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
	return img.Store.AppendNodes(out), nil
}

// decodeSnapshotImage is the one reader: the current format by its
// magic, and — legacy true — the all-JSON payload that snapshots written
// before it and bootstrap responses of a not yet upgraded primary carry.
func decodeSnapshotImage(payload []byte) (img *snapshotImage, legacy bool, err error) {
	img = &snapshotImage{}
	if len(payload) > 0 && payload[0] == '{' {
		if err := json.Unmarshal(payload, img); err != nil {
			return nil, true, err
		}
		return img, true, nil
	}
	if len(payload) < snapImageHeader || string(payload[:len(snapImageMagic)]) != snapImageMagic {
		return nil, false, fmt.Errorf("not a snapshot image: no %q magic and not JSON", snapImageMagic)
	}
	if v := payload[len(snapImageMagic)]; v != snapImageVersion {
		return nil, false, fmt.Errorf("snapshot image version %d, this build reads version %d and JSON", v, snapImageVersion)
	}
	metaLen := binary.LittleEndian.Uint32(payload[snapImageHeader-4:])
	body := payload[snapImageHeader:]
	if uint64(metaLen) > uint64(len(body)) {
		return nil, false, fmt.Errorf("snapshot image claims %d bytes of meta, %d bytes left", metaLen, len(body))
	}
	if err := json.Unmarshal(body[:metaLen], img); err != nil {
		return nil, false, fmt.Errorf("snapshot image meta: %w", err)
	}
	if img.Store == nil {
		return nil, false, fmt.Errorf("snapshot image meta has no store")
	}
	if err := img.Store.DecodeNodes(body[metaLen:]); err != nil {
		return nil, false, err
	}
	return img, false, nil
}
