// Package policy implements the paper's privacy policy formulation
// framework (Section 3): the three flexible declarative languages it calls
// for, with XML encodings, plus the machinery to evaluate them.
//
//  1. A user preference language: how a data subject's items may be shared,
//     "under a specific stated purpose by the requester and in a specific
//     form (exact value, aggregate, range, etc.)".
//  2. A privacy-view language: which data in a source is private at all,
//     expressed as a set of path patterns with sensitivity levels.
//  3. A source policy language: the source's own sharing rules. "Data items
//     in a source can be shared only if the purpose statement of the
//     requester satisfies the policy."
//
// Decisions combine: a disclosure is allowed only if the source policy and
// every applicable subject preference allow it, and the permitted
// information loss is the minimum any of them grants. Policies are stored
// both at the source and at the mediation engine (the paper's two-level
// enforcement), which is why everything here round-trips through XML.
package policy

import (
	"fmt"
	"math"

	"privateiye/internal/xmltree"
)

// Form is the disclosure form lattice: Suppressed < Aggregate < Range <
// Exact. A rule granting some form implicitly grants every weaker form —
// a source willing to reveal exact values cannot object to a range.
type Form int

// Disclosure forms, weakest first.
const (
	Suppressed Form = iota
	Aggregate
	Range
	Exact
)

// String names the form as it appears in policy XML.
func (f Form) String() string {
	switch f {
	case Suppressed:
		return "suppressed"
	case Aggregate:
		return "aggregate"
	case Range:
		return "range"
	case Exact:
		return "exact"
	}
	return fmt.Sprintf("Form(%d)", int(f))
}

// ParseForm parses a form name.
func ParseForm(s string) (Form, error) {
	switch s {
	case "suppressed":
		return Suppressed, nil
	case "aggregate":
		return Aggregate, nil
	case "range":
		return Range, nil
	case "exact":
		return Exact, nil
	}
	return 0, fmt.Errorf("policy: unknown form %q", s)
}

// Permits reports whether a grant of form f covers a request for form
// want: granting a stronger (more revealing) form covers all weaker ones.
func (f Form) Permits(want Form) bool { return want <= f }

// Effect is a rule outcome.
type Effect int

// Rule effects.
const (
	Deny Effect = iota
	Allow
)

// String names the effect.
func (e Effect) String() string {
	if e == Allow {
		return "allow"
	}
	return "deny"
}

// ParseEffect parses an effect name.
func ParseEffect(s string) (Effect, error) {
	switch s {
	case "allow":
		return Allow, nil
	case "deny":
		return Deny, nil
	}
	return 0, fmt.Errorf("policy: unknown effect %q", s)
}

// Rule is one sharing rule: for items matching Item, requests with a
// purpose implied by Purpose may receive the data in Form (or weaker),
// with at most MaxLoss privacy loss permitted downstream.
type Rule struct {
	// Item is a path pattern such as //patient/diagnosis.
	Item string
	// Purpose is a node of the purpose taxonomy; the rule applies to
	// requests whose stated purpose is this purpose or a descendant.
	Purpose string
	// Form is the strongest disclosure form granted.
	Form Form
	// Effect is Allow or Deny. Deny rules win over Allow rules.
	Effect Effect
	// MaxLoss bounds the privacy loss (0..1 scale, see internal/loss) the
	// owner tolerates for this disclosure. Only meaningful on Allow.
	MaxLoss float64

	pattern *xmltree.PathPattern
}

// compile prepares the rule's pattern.
func (r *Rule) compile() error {
	p, err := xmltree.CompilePattern(r.Item)
	if err != nil {
		return fmt.Errorf("policy: rule item: %w", err)
	}
	r.pattern = p
	return nil
}

// Policy is an ordered rule list with a default effect. It serves as both
// the source policy language and (with Owner set to a subject id) the user
// preference language — the paper's languages share this core, differing
// in who authors them and where they are enforced.
type Policy struct {
	// Owner identifies the policy author: a source name or a data-subject
	// id.
	Owner string
	// Rules are evaluated most-specific semantics: all matching rules are
	// collected; any matching Deny wins; otherwise the strongest matching
	// Allow applies.
	Rules []Rule
	// DefaultEffect applies when no rule matches (Deny in any sane
	// deployment; the zero value).
	DefaultEffect Effect
}

// NewPolicy compiles a policy, validating every rule pattern.
func NewPolicy(owner string, defaultEffect Effect, rules ...Rule) (*Policy, error) {
	p := &Policy{Owner: owner, DefaultEffect: defaultEffect, Rules: rules}
	for i := range p.Rules {
		if err := p.Rules[i].compile(); err != nil {
			return nil, fmt.Errorf("policy %q rule %d: %w", owner, i, err)
		}
		if p.Rules[i].MaxLoss < 0 || p.Rules[i].MaxLoss > 1 {
			return nil, fmt.Errorf("policy %q rule %d: max loss %v out of [0,1]", owner, i, p.Rules[i].MaxLoss)
		}
	}
	return p, nil
}

// Request is a disclosure request: a data item (absolute path), the
// requester's stated purpose, and the disclosure form sought.
type Request struct {
	ItemPath string
	Purpose  string
	Form     Form
}

// Decision is the outcome of evaluating one or more policies.
type Decision struct {
	Allowed bool
	// MaxLoss is the privacy-loss budget the policies grant (minimum over
	// the applicable Allow rules); meaningful only when Allowed.
	MaxLoss float64
	// Form is the strongest form granted (minimum over policies).
	Form Form
	// Reason describes which rule decided, for audit trails.
	Reason string
}

// Decide evaluates the policy for a request under the purpose taxonomy.
func (p *Policy) Decide(req Request, purposes *PurposeTree) Decision {
	var best *Rule
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.pattern == nil {
			if err := r.compile(); err != nil {
				continue
			}
		}
		if !r.pattern.Matches(req.ItemPath) {
			continue
		}
		if !purposes.Implies(r.Purpose, req.Purpose) {
			continue
		}
		if r.Effect == Deny {
			return Decision{
				Allowed: false,
				Reason:  fmt.Sprintf("%s: deny rule %s for purpose %s", p.Owner, r.Item, r.Purpose),
			}
		}
		if !r.Form.Permits(req.Form) {
			// The rule grants only a weaker form; remember it (it may
			// still be the strongest grant) but keep looking.
			if best == nil || r.Form > best.Form {
				best = r
			}
			continue
		}
		if best == nil || r.Form > best.Form || (r.Form == best.Form && r.MaxLoss > best.MaxLoss) {
			best = r
		}
	}
	if best == nil {
		if p.DefaultEffect == Allow {
			return Decision{Allowed: true, MaxLoss: 1, Form: Exact, Reason: p.Owner + ": default allow"}
		}
		return Decision{Allowed: false, Reason: p.Owner + ": default deny"}
	}
	if !best.Form.Permits(req.Form) {
		return Decision{
			Allowed: false,
			Form:    best.Form,
			Reason: fmt.Sprintf("%s: %s grants only %s, %s requested",
				p.Owner, best.Item, best.Form, req.Form),
		}
	}
	return Decision{
		Allowed: true,
		MaxLoss: best.MaxLoss,
		Form:    best.Form,
		Reason:  fmt.Sprintf("%s: allow rule %s for purpose %s", p.Owner, best.Item, best.Purpose),
	}
}

// Combine merges decisions from several authorities (source policy plus
// subject preferences): all must allow; the loss budget is the minimum;
// the granted form is the weakest granted.
func Combine(decisions ...Decision) Decision {
	if len(decisions) == 0 {
		return Decision{Allowed: false, Reason: "no applicable policy"}
	}
	out := Decision{Allowed: true, MaxLoss: math.MaxFloat64, Form: Exact}
	for _, d := range decisions {
		if !d.Allowed {
			return Decision{Allowed: false, Form: d.Form, Reason: d.Reason}
		}
		if d.MaxLoss < out.MaxLoss {
			out.MaxLoss = d.MaxLoss
		}
		if d.Form < out.Form {
			out.Form = d.Form
		}
		if out.Reason == "" {
			out.Reason = d.Reason
		} else {
			out.Reason += "; " + d.Reason
		}
	}
	return out
}

// Sensitivity grades private data in a privacy view.
type Sensitivity int

// Sensitivity levels.
const (
	Low Sensitivity = iota
	Medium
	High
)

// String names the sensitivity level.
func (s Sensitivity) String() string {
	switch s {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	}
	return fmt.Sprintf("Sensitivity(%d)", int(s))
}

// PrivacyView is the second language: it defines what counts as private
// data in a source, as a set of item patterns with sensitivities. Items
// not covered by any view are public.
type PrivacyView struct {
	Name  string
	Items []ViewItem
}

// ViewItem is one entry of a privacy view.
type ViewItem struct {
	Item        string
	Sensitivity Sensitivity

	pattern *xmltree.PathPattern
}

// NewPrivacyView compiles a privacy view.
func NewPrivacyView(name string, items ...ViewItem) (*PrivacyView, error) {
	v := &PrivacyView{Name: name, Items: items}
	for i := range v.Items {
		p, err := xmltree.CompilePattern(v.Items[i].Item)
		if err != nil {
			return nil, fmt.Errorf("policy: view %q item %d: %w", name, i, err)
		}
		v.Items[i].pattern = p
	}
	return v, nil
}

// Covers returns the highest sensitivity of any view item matching the
// path, and whether any matched at all.
func (v *PrivacyView) Covers(path string) (Sensitivity, bool) {
	best := Low
	found := false
	for i := range v.Items {
		it := &v.Items[i]
		if it.pattern != nil && it.pattern.Matches(path) {
			found = true
			if it.Sensitivity > best {
				best = it.Sensitivity
			}
		}
	}
	return best, found
}
