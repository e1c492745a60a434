package preserve

import (
	"fmt"
	"sync"
)

// BreachClass names a family of privacy breaches a query's results can
// enable. The Cluster Matching module labels query clusters with these;
// the registry maps each to the technique pipeline that mitigates it
// (Section 4: "each cluster represents a set of queries having similar
// privacy breaches and, hence, similar privacy preservation techniques").
type BreachClass int

// Breach classes.
const (
	// BreachNone: no disclosure risk detected.
	BreachNone BreachClass = iota
	// BreachIdentity: results re-identify individuals (identifier columns
	// present, small result sets).
	BreachIdentity
	// BreachAttribute: results link a sensitive attribute to an
	// identifiable individual.
	BreachAttribute
	// BreachAggregateInference: published aggregates admit the Figure 1
	// interval-inference attack.
	BreachAggregateInference
	// BreachLinkage: results carry quasi-identifiers that join against
	// external data.
	BreachLinkage
	// BreachSequence: the query composes with the requester's history to
	// disclose (tracker attacks); handled by internal/audit, the registry
	// carries the in-result mitigation.
	BreachSequence
)

// String names the class.
func (b BreachClass) String() string {
	switch b {
	case BreachNone:
		return "none"
	case BreachIdentity:
		return "identity-disclosure"
	case BreachAttribute:
		return "attribute-disclosure"
	case BreachAggregateInference:
		return "aggregate-inference"
	case BreachLinkage:
		return "linkage"
	case BreachSequence:
		return "sequence-inference"
	}
	return fmt.Sprintf("BreachClass(%d)", int(b))
}

// Registry is the Privacy Preservation KB: breach class -> technique.
type Registry struct {
	mu         sync.RWMutex
	techniques map[BreachClass]Technique
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{techniques: map[BreachClass]Technique{}}
}

// Register sets the technique for a breach class, replacing any previous
// registration.
func (r *Registry) Register(b BreachClass, t Technique) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.techniques[b] = t
}

// For returns the technique for a breach class; unregistered classes get
// Identity.
func (r *Registry) For(b BreachClass) Technique {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if t, ok := r.techniques[b]; ok {
		return t
	}
	return Identity{}
}

// DefaultRegistry wires the standard mitigations used by the examples and
// benchmarks:
//
//	identity-disclosure  -> drop identifier columns, generalize age and zip
//	attribute-disclosure -> generalize the quasi-identifiers one level
//	                        further and microaggregate numeric payloads
//	aggregate-inference  -> round aggregates coarsely and suppress small
//	                        groups
//	linkage              -> generalize quasi-identifiers, sample rows
//	sequence-inference   -> round plus sample (the audit layer additionally
//	                        throttles the sequence itself)
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register(BreachIdentity, Pipeline{Steps: []Technique{
		DropColumns{Columns: []string{"name", "id", "ssn"}},
		Generalize{Column: "age", Hierarchy: AgeHierarchy(), Level: 2},
		Generalize{Column: "zip", Hierarchy: ZipHierarchy(), Level: 2},
	}})
	r.Register(BreachAttribute, Pipeline{Steps: []Technique{
		DropColumns{Columns: []string{"name", "id", "ssn"}},
		Generalize{Column: "age", Hierarchy: AgeHierarchy(), Level: 3},
		Generalize{Column: "zip", Hierarchy: ZipHierarchy(), Level: 3},
		Generalize{Column: "diagnosis", Hierarchy: DiagnosisHierarchy(), Level: 1},
	}})
	r.Register(BreachAggregateInference, Pipeline{Steps: []Technique{
		RoundNumeric{Column: "avg_rate", Places: 0},
		RoundNumeric{Column: "sd_rate", Places: 0},
		SmallCountSuppress{CountColumn: "n", Threshold: 3},
	}})
	r.Register(BreachLinkage, Pipeline{Steps: []Technique{
		Generalize{Column: "zip", Hierarchy: ZipHierarchy(), Level: 2},
		Generalize{Column: "age", Hierarchy: AgeHierarchy(), Level: 2},
		RandomSample{P: 0.9},
	}})
	r.Register(BreachSequence, Pipeline{Steps: []Technique{
		RoundNumeric{Column: "avg_rate", Places: 0},
		RandomSample{P: 0.8},
	}})
	return r
}
