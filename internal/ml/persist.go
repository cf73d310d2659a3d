package ml

import (
	"encoding/json"
	"fmt"
)

// Model persistence: trained tuners are shipped "from the factory"
// (Section 3.1.2), so every model serializes to JSON and back without
// loss. Unexported tree internals round-trip through explicit DTOs to
// keep the wire format stable and independent of implementation details.

type m5NodeDTO struct {
	Feat   int        `json:"feat"`
	Thresh float64    `json:"thresh"`
	Leaf   bool       `json:"leaf"`
	N      int        `json:"n"`
	Model  *Linear    `json:"model,omitempty"` // weights in the tree's Names order
	Left   *m5NodeDTO `json:"left,omitempty"`
	Right  *m5NodeDTO `json:"right,omitempty"`
}

type m5TreeDTO struct {
	Names []string   `json:"names"`
	Root  *m5NodeDTO `json:"root"`
}

func m5ToDTO(n *m5node) *m5NodeDTO {
	if n == nil {
		return nil
	}
	return &m5NodeDTO{
		Feat: n.feat, Thresh: n.thresh, Leaf: n.leaf, N: n.n, Model: n.model,
		Left: m5ToDTO(n.left), Right: m5ToDTO(n.right),
	}
}

func m5FromDTO(d *m5NodeDTO) *m5node {
	if d == nil {
		return nil
	}
	return &m5node{
		feat: d.Feat, thresh: d.Thresh, leaf: d.Leaf, n: d.N, model: d.Model,
		left: m5FromDTO(d.Left), right: m5FromDTO(d.Right),
	}
}

// MarshalJSON implements json.Marshaler.
func (t *M5Tree) MarshalJSON() ([]byte, error) {
	return json.Marshal(m5TreeDTO{Names: t.Names, Root: m5ToDTO(t.root)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *M5Tree) UnmarshalJSON(data []byte) error {
	var d m5TreeDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("ml: decoding M5 tree: %w", err)
	}
	if d.Root == nil {
		return fmt.Errorf("ml: M5 tree without root")
	}
	t.Names = d.Names
	t.root = m5FromDTO(d.Root)
	return t.validateM5(t.root)
}

func (t *M5Tree) validateM5(n *m5node) error {
	if n == nil {
		return fmt.Errorf("ml: M5 tree with nil node")
	}
	if n.leaf {
		if n.model == nil {
			return fmt.Errorf("ml: M5 leaf without model")
		}
		if len(n.model.W) != len(t.Names) {
			return fmt.Errorf("ml: M5 leaf model arity %d != %d features",
				len(n.model.W), len(t.Names))
		}
		return nil
	}
	if n.feat < 0 || n.feat >= len(t.Names) {
		return fmt.Errorf("ml: M5 split on unknown feature %d", n.feat)
	}
	if n.model == nil {
		return fmt.Errorf("ml: M5 internal node without smoothing model")
	}
	if err := t.validateM5(n.left); err != nil {
		return err
	}
	return t.validateM5(n.right)
}

type repNodeDTO struct {
	Feat   int         `json:"feat"`
	Thresh float64     `json:"thresh"`
	Leaf   bool        `json:"leaf"`
	N      int         `json:"n"`
	Mean   float64     `json:"mean"`
	Left   *repNodeDTO `json:"left,omitempty"`
	Right  *repNodeDTO `json:"right,omitempty"`
}

type repTreeDTO struct {
	Names []string    `json:"names"`
	Root  *repNodeDTO `json:"root"`
}

func repToDTO(n *repNode) *repNodeDTO {
	if n == nil {
		return nil
	}
	return &repNodeDTO{
		Feat: n.feat, Thresh: n.thresh, Leaf: n.leaf, N: n.n, Mean: n.mean,
		Left: repToDTO(n.left), Right: repToDTO(n.right),
	}
}

func repFromDTO(d *repNodeDTO) *repNode {
	if d == nil {
		return nil
	}
	return &repNode{
		feat: d.Feat, thresh: d.Thresh, leaf: d.Leaf, n: d.N, mean: d.Mean,
		left: repFromDTO(d.Left), right: repFromDTO(d.Right),
	}
}

// MarshalJSON implements json.Marshaler.
func (t *REPTree) MarshalJSON() ([]byte, error) {
	return json.Marshal(repTreeDTO{Names: t.Names, Root: repToDTO(t.root)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *REPTree) UnmarshalJSON(data []byte) error {
	var d repTreeDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("ml: decoding REP tree: %w", err)
	}
	if d.Root == nil {
		return fmt.Errorf("ml: REP tree without root")
	}
	t.Names = d.Names
	t.root = repFromDTO(d.Root)
	return validateREP(t.root, len(d.Names))
}

func validateREP(n *repNode, features int) error {
	if n == nil {
		return fmt.Errorf("ml: REP tree with nil node")
	}
	if n.leaf {
		return nil
	}
	if n.feat < 0 || n.feat >= features {
		return fmt.Errorf("ml: REP split on unknown feature %d", n.feat)
	}
	if err := validateREP(n.left, features); err != nil {
		return err
	}
	return validateREP(n.right, features)
}

type svmDTO struct {
	Names []string  `json:"names"`
	W     []float64 `json:"w"`
	B     float64   `json:"b"`
	Mean  []float64 `json:"mean"`
	Scale []float64 `json:"scale"`
}

// MarshalJSON implements json.Marshaler.
func (m *SVM) MarshalJSON() ([]byte, error) {
	return json.Marshal(svmDTO{Names: m.Names, W: m.W, B: m.B, Mean: m.mean, Scale: m.scale})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *SVM) UnmarshalJSON(data []byte) error {
	var d svmDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("ml: decoding SVM: %w", err)
	}
	if len(d.W) != len(d.Names) || len(d.Mean) != len(d.Names) || len(d.Scale) != len(d.Names) {
		return fmt.Errorf("ml: SVM arity mismatch")
	}
	for _, s := range d.Scale {
		if s == 0 {
			return fmt.Errorf("ml: SVM with zero feature scale")
		}
	}
	m.Names = d.Names
	m.W = d.W
	m.B = d.B
	m.mean = d.Mean
	m.scale = d.Scale
	return nil
}
