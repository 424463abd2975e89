package fairtree

import (
	"fmt"
	"strings"
)

// Spec is a declarative share-tree description, parsed from the
// FSTREE stanza in maui.cfg. An empty spec yields the degenerate flat
// tree (every user a direct child of the root with quota 1), which is
// bit-identical to the legacy flat fairshare.
type Spec struct {
	Nodes []SpecNode
}

// SpecNode declares one tree node by dotted path.
type SpecNode struct {
	// Path is the dot-separated path from the root, e.g.
	// "physics.lattice". Intermediate nodes are created implicitly.
	Path string
	// Quota is the node's share relative to its siblings (<=0
	// means 1).
	Quota float64
	// OverQuotaWeight softens (>1) or hardens (<1) the over-quota
	// penalty (<=0 means 1).
	OverQuotaWeight float64
	// Users lists user names homed at this node; their leaves are
	// created under it on first submit.
	Users []string
}

// Validate rejects empty paths and users homed at two nodes.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	seen := make(map[string]string)
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Path == "" {
			return fmt.Errorf("fstree: node %d has empty path", i)
		}
		parts := strings.Split(n.Path, ".")
		for _, p := range parts {
			if p == "" {
				return fmt.Errorf("fstree: node %q has empty path component", n.Path)
			}
		}
		for _, u := range n.Users {
			if u == "" {
				return fmt.Errorf("fstree: node %q lists an empty user name", n.Path)
			}
			if prev, dup := seen[u]; dup {
				return fmt.Errorf("fstree: user %q homed at both %q and %q", u, prev, n.Path)
			}
			seen[u] = n.Path
		}
	}
	return nil
}

// ApplySpec materializes the spec's interior nodes and user homes.
// Returns the first validation error, leaving the tree unchanged on
// failure.
func (t *Tree) ApplySpec(s *Spec) error {
	if s == nil {
		return nil
	}
	if err := s.Validate(); err != nil {
		return err
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		id := NodeID(0)
		parts := strings.Split(n.Path, ".")
		for _, p := range parts {
			id = t.Child(id, p)
		}
		if n.Quota > 0 {
			t.SetQuota(id, n.Quota)
		}
		if n.OverQuotaWeight > 0 {
			t.SetOverWeight(id, n.OverQuotaWeight)
		}
		for _, u := range n.Users {
			t.userHome[u] = id
		}
		// A user homed under a non-root node will become a depth-2
		// leaf: the hierarchy is decided now, not at first submit, so
		// the scheduler's flat-order fast path must shut off here.
		if id > 0 && len(n.Users) > 0 {
			t.flat = false
		}
	}
	return nil
}
