package policy

import (
	"fmt"
	"strconv"

	"privateiye/internal/xmltree"
)

// The XML encodings below are how policies travel: the source keeps them
// locally and also registers them with the mediation engine (the paper's
// two-level enforcement requires the mediator to know "the privacy
// policies that are relevant to the query results").

// ToNode encodes a policy:
//
//	<policy owner="hospitalA" default="deny">
//	  <rule item="//patient/diagnosis" purpose="epidemiology"
//	        form="aggregate" effect="allow" maxloss="0.2"/>
//	</policy>
func (p *Policy) ToNode() *xmltree.Node {
	root := xmltree.NewElem("policy").
		SetAttr("owner", p.Owner).
		SetAttr("default", p.DefaultEffect.String())
	for _, r := range p.Rules {
		e := xmltree.NewElem("rule").
			SetAttr("item", r.Item).
			SetAttr("purpose", r.Purpose).
			SetAttr("form", r.Form.String()).
			SetAttr("effect", r.Effect.String())
		if r.Effect == Allow {
			e.SetAttr("maxloss", strconv.FormatFloat(r.MaxLoss, 'g', -1, 64))
		}
		root.Append(e)
	}
	return root
}

// PolicyFromNode decodes the ToNode encoding.
func PolicyFromNode(n *xmltree.Node) (*Policy, error) {
	if n.Name != "policy" {
		return nil, fmt.Errorf("policy: expected <policy>, got <%s>", n.Name)
	}
	owner, _ := n.Attr("owner")
	if owner == "" {
		return nil, fmt.Errorf("policy: <policy> missing owner")
	}
	defEffect := Deny
	if d, ok := n.Attr("default"); ok {
		var err error
		defEffect, err = ParseEffect(d)
		if err != nil {
			return nil, err
		}
	}
	var rules []Rule
	for _, c := range n.ChildrenNamed("rule") {
		item, _ := c.Attr("item")
		purpose, _ := c.Attr("purpose")
		if item == "" || purpose == "" {
			return nil, fmt.Errorf("policy: rule missing item or purpose")
		}
		// form is optional: deny rules don't need one, and an allow rule
		// without a form grants only the weakest (suppressed) — fail-safe.
		form := Suppressed
		if formS, ok := c.Attr("form"); ok {
			var err error
			form, err = ParseForm(formS)
			if err != nil {
				return nil, err
			}
		}
		effS, _ := c.Attr("effect")
		eff, err := ParseEffect(effS)
		if err != nil {
			return nil, err
		}
		r := Rule{Item: item, Purpose: purpose, Form: form, Effect: eff}
		if ml, ok := c.Attr("maxloss"); ok {
			v, err := strconv.ParseFloat(ml, 64)
			if err != nil {
				return nil, fmt.Errorf("policy: bad maxloss %q: %w", ml, err)
			}
			r.MaxLoss = v
		}
		rules = append(rules, r)
	}
	return NewPolicy(owner, defEffect, rules...)
}

// ParsePolicy decodes a policy from XML text.
func ParsePolicy(src string) (*Policy, error) {
	n, err := xmltree.ParseString(src)
	if err != nil {
		return nil, err
	}
	return PolicyFromNode(n)
}

// ToNode encodes a privacy view:
//
//	<privacyview name="clinical-private">
//	  <item path="//patient/dob" sensitivity="high"/>
//	</privacyview>
func (v *PrivacyView) ToNode() *xmltree.Node {
	root := xmltree.NewElem("privacyview").SetAttr("name", v.Name)
	for _, it := range v.Items {
		root.Append(xmltree.NewElem("item").
			SetAttr("path", it.Item).
			SetAttr("sensitivity", it.Sensitivity.String()))
	}
	return root
}
