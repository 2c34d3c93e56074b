package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// decodeImageV2 reads the body of a version-2 payload, the version
// before this build's:
//
//	metaLen[u32le]  meta  nodesLen[u64le]  nodes  tables
//
// meta is the snapshotImage as JSON with Store.Nodes and every job's
// Store.Jobs[i].Table left out; nodes is the rings as in version 3;
// tables is the jobs' quantile tables, in the form
// tsdb.StoreState.DecodeTables documents, running to the end of the
// payload. This file goes when a build writes the version after 3.
func decodeImageV2(body []byte) (*snapshotImage, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("snapshot image: meta length is cut short")
	}
	metaLen := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(metaLen) > uint64(len(body)) {
		return nil, fmt.Errorf("snapshot image claims %d bytes of meta, %d bytes left", metaLen, len(body))
	}
	img := &snapshotImage{}
	if err := json.Unmarshal(body[:metaLen], img); err != nil {
		return nil, fmt.Errorf("snapshot image meta: %w", err)
	}
	if img.Store == nil {
		return nil, fmt.Errorf("snapshot image meta has no store")
	}
	nodes := body[metaLen:]
	if len(nodes) < 8 || binary.LittleEndian.Uint64(nodes) > uint64(len(nodes)-8) {
		return nil, fmt.Errorf("snapshot image: nodes section length is cut short or runs past the payload")
	}
	n := binary.LittleEndian.Uint64(nodes)
	if err := img.Store.DecodeTables(nodes[8+n:]); err != nil {
		return nil, err
	}
	if err := img.Store.DecodeNodes(nodes[8 : 8+n]); err != nil {
		return nil, err
	}
	return img, nil
}
