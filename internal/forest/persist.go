package forest

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"baywatch/internal/durable"
)

// Persistence: a trained forest serializes to gob (gzip-compressed) so the
// triage classifier can be trained once on a labeled window and reloaded
// for every subsequent run. Trees flatten into index-linked node arrays —
// gob needs exported fields and the in-memory node type is deliberately
// unexported.

// flatNode is the serialized form of one tree node. Left/Right index into
// the tree's node slice; -1 marks "none" (leaves).
type flatNode struct {
	FeatureIdx  int
	Threshold   float64
	Left, Right int32
	Prediction  int
	Prob        float64
}

// forestSnapshot is the on-disk format.
type forestSnapshot struct {
	Version  int
	Trees    [][]flatNode
	OOBError float64
	Config   Config
}

const forestSnapshotVersion = 1

func flatten(root *node) []flatNode {
	var out []flatNode
	var walk func(n *node) int32
	walk = func(n *node) int32 {
		idx := int32(len(out))
		out = append(out, flatNode{
			FeatureIdx: n.featureIdx,
			Threshold:  n.threshold,
			Left:       -1,
			Right:      -1,
			Prediction: n.prediction,
			Prob:       n.prob,
		})
		if n.featureIdx >= 0 {
			l := walk(n.left)
			r := walk(n.right)
			out[idx].Left = l
			out[idx].Right = r
		}
		return idx
	}
	walk(root)
	return out
}

func unflatten(nodes []flatNode) (*node, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("forest: empty tree")
	}
	built := make([]*node, len(nodes))
	// Nodes were emitted pre-order; children always follow parents, so a
	// reverse pass can link safely.
	for i := len(nodes) - 1; i >= 0; i-- {
		fn := nodes[i]
		n := &node{
			featureIdx: fn.FeatureIdx,
			threshold:  fn.Threshold,
			prediction: fn.Prediction,
			prob:       fn.Prob,
		}
		if fn.FeatureIdx >= 0 {
			if fn.Left < 0 || int(fn.Left) >= len(nodes) || fn.Right < 0 || int(fn.Right) >= len(nodes) {
				return nil, fmt.Errorf("forest: node %d has bad child indices (%d, %d)", i, fn.Left, fn.Right)
			}
			if int(fn.Left) <= i || int(fn.Right) <= i {
				return nil, fmt.Errorf("forest: node %d children do not follow it", i)
			}
			n.left = built[fn.Left]
			n.right = built[fn.Right]
			if n.left == nil || n.right == nil {
				return nil, fmt.Errorf("forest: node %d has unresolved children", i)
			}
		}
		built[i] = n
	}
	return built[0], nil
}

// Save writes the trained forest to path (gzip-compressed gob),
// atomically and durably.
func (f *Forest) Save(path string) error {
	if len(f.trees) == 0 {
		return fmt.Errorf("forest: cannot save untrained forest")
	}
	snap := forestSnapshot{
		Version:  forestSnapshotVersion,
		Trees:    make([][]flatNode, len(f.trees)),
		OOBError: f.OOBError,
		Config:   f.cfg,
	}
	// KeyHash-like non-serializable fields do not exist in Config; it is
	// plain data.
	for i, t := range f.trees {
		snap.Trees[i] = flatten(t)
	}
	if math.IsNaN(snap.OOBError) {
		snap.OOBError = -1 // gob handles NaN, but -1 keeps the file greppable
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(gz).Encode(snap); err != nil {
		return fmt.Errorf("forest: encode: %w", err)
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("forest: gzip: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("forest: mkdir: %w", err)
	}
	if err := durable.WriteFile(path, buf.Bytes(), durable.Points{}); err != nil {
		return fmt.Errorf("forest: %w", err)
	}
	return nil
}

// Load reads a forest previously written by Save.
func Load(path string) (*Forest, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("forest: open: %w", err)
	}
	defer file.Close()
	gz, err := gzip.NewReader(file)
	if err != nil {
		return nil, fmt.Errorf("forest: gzip: %w", err)
	}
	defer gz.Close()
	var snap forestSnapshot
	if err := gob.NewDecoder(gz).Decode(&snap); err != nil {
		return nil, fmt.Errorf("forest: decode: %w", err)
	}
	if snap.Version != forestSnapshotVersion {
		return nil, fmt.Errorf("forest: unsupported snapshot version %d", snap.Version)
	}
	f := &Forest{cfg: snap.Config, OOBError: snap.OOBError}
	if snap.OOBError < 0 {
		f.OOBError = math.NaN()
	}
	f.trees = make([]*node, len(snap.Trees))
	for i, flat := range snap.Trees {
		t, err := unflatten(flat)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
		f.trees[i] = t
	}
	return f, nil
}
