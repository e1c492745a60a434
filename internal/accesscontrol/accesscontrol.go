// Package accesscontrol implements the classical security layer the paper
// positions privacy *beyond* (Section 2, "Secured Databases"): role-based
// access control, and multi-level security with no-read-up /
// no-write-down rules. The query rewriter consults this layer first —
// "produces a query that will only retrieve the information that can be
// accessed by the requester" — and the privacy machinery then handles
// what access control cannot: secondary analysis by authorized users.
package accesscontrol

import (
	"fmt"
	"sync"

	"privateiye/internal/xmltree"
)

// Action is an access mode.
type Action int

// Access modes.
const (
	Read Action = iota
	Write
)

// String names the action.
func (a Action) String() string {
	if a == Write {
		return "write"
	}
	return "read"
}

// Role is a named role.
type Role string

// Permission grants an action on items matching a path pattern.
type Permission struct {
	Item   string
	Action Action

	pattern *xmltree.PathPattern
}

// RBAC is a role-based access control store: role-permission grants
// and subject-role assignments.
type RBAC struct {
	mu       sync.RWMutex
	grants   map[Role][]Permission
	assigned map[string][]Role // subject -> roles
}

// NewRBAC returns an empty store.
func NewRBAC() *RBAC {
	return &RBAC{
		grants:   map[Role][]Permission{},
		assigned: map[string][]Role{},
	}
}

// Grant gives a role a permission.
func (r *RBAC) Grant(role Role, action Action, itemPattern string) error {
	p, err := xmltree.CompilePattern(itemPattern)
	if err != nil {
		return fmt.Errorf("accesscontrol: grant: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.grants[role] = append(r.grants[role], Permission{Item: itemPattern, Action: action, pattern: p})
	return nil
}

// Assign gives a subject a role.
func (r *RBAC) Assign(subject string, roles ...Role) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.assigned[subject] = append(r.assigned[subject], roles...)
}

// Can reports whether the subject may perform the action on the item path
// through any assigned role.
func (r *RBAC) Can(subject string, action Action, itemPath string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, role := range r.assigned[subject] {
		perms := r.grants[role]
		for i := range perms {
			if perms[i].Action == action && perms[i].pattern.Matches(itemPath) {
				return true
			}
		}
	}
	return false
}

// Level is a multi-level security classification.
type Level int

// Security levels, lowest first.
const (
	Public Level = iota
	Internal
	Confidential
	Secret
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Public:
		return "public"
	case Internal:
		return "internal"
	case Confidential:
		return "confidential"
	case Secret:
		return "secret"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// MLS is a multi-level security store: clearances for subjects and
// classifications for item patterns. The paper: "A query with a lower
// level of security cannot read a data item requiring higher level of
// clearance, while a higher security query cannot write a lower security
// data item."
type MLS struct {
	mu         sync.RWMutex
	clearances map[string]Level
	classified []classification
}

type classification struct {
	pattern *xmltree.PathPattern
	level   Level
}

// NewMLS returns an empty store. Unclassified items are Public;
// subjects without a clearance are Public.
func NewMLS() *MLS {
	return &MLS{clearances: map[string]Level{}}
}

// SetClearance records a subject's clearance.
func (m *MLS) SetClearance(subject string, l Level) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clearances[subject] = l
}

// Classify labels items matching the pattern with the level. When several
// patterns match an item, the highest classification wins.
func (m *MLS) Classify(itemPattern string, l Level) error {
	p, err := xmltree.CompilePattern(itemPattern)
	if err != nil {
		return fmt.Errorf("accesscontrol: classify: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.classified = append(m.classified, classification{pattern: p, level: l})
	return nil
}

// LevelOf returns the classification of an item path.
func (m *MLS) LevelOf(itemPath string) Level {
	m.mu.RLock()
	defer m.mu.RUnlock()
	best := Public
	for _, c := range m.classified {
		if c.pattern.Matches(itemPath) && c.level > best {
			best = c.level
		}
	}
	return best
}

// ClearanceOf returns the subject's clearance.
func (m *MLS) ClearanceOf(subject string) Level {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.clearances[subject]
}

// CanRead applies the simple-security ("no read up") rule.
func (m *MLS) CanRead(subject, itemPath string) bool {
	return m.ClearanceOf(subject) >= m.LevelOf(itemPath)
}

// CanWrite applies the star-property ("no write down") rule.
func (m *MLS) CanWrite(subject, itemPath string) bool {
	return m.ClearanceOf(subject) <= m.LevelOf(itemPath)
}

// Store is the combined Access Control box of Figure 2(a): RBAC and MLS
// checked together. Access requires both to agree.
type Store struct {
	RBAC *RBAC
	MLS  *MLS
}

// NewStore returns a combined store with empty RBAC and MLS layers.
func NewStore() *Store {
	return &Store{RBAC: NewRBAC(), MLS: NewMLS()}
}

// Check reports whether the subject can perform the action on the item.
func (s *Store) Check(subject string, action Action, itemPath string) bool {
	if !s.RBAC.Can(subject, action, itemPath) {
		return false
	}
	if action == Read {
		return s.MLS.CanRead(subject, itemPath)
	}
	return s.MLS.CanWrite(subject, itemPath)
}
