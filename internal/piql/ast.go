// Package piql implements PIQL, the Privacy-conscious Integration Query
// Language of PRIVATE-IYE.
//
// Section 5 of the paper requires "a declarative language that supports
// loosely structured queries" over the mediated schema, extended so "the
// requester should be able to provide the purpose of the query and the
// maximum information loss he/she is willing to accommodate". PIQL is that
// language: an XQuery-flavoured FOR/WHERE/RETURN form whose path
// expressions are loose (descendant axes, wildcards, and resolver-assisted
// approximate tag matching, so //patient//dateOfBirth can still find a
// source's dob), plus the two privacy clauses, PURPOSE and MAXLOSS.
//
// Grammar (keywords case-insensitive):
//
//	query   := FOR path [WHERE cond] [GROUP BY path {, path}]
//	           RETURN item {, item} [ORDER BY ident [DESC]] [LIMIT number]
//	           [PURPOSE ident] [MAXLOSS number]
//	item    := path [AS ident] | agg '(' path ')' [AS ident] | COUNT '(' '*' ')' [AS ident]
//	agg     := COUNT | SUM | AVG | MIN | MAX | STDDEV
//	cond    := or
//	or      := and {OR and}
//	and     := not {AND not}
//	not     := NOT not | '(' cond ')' | pred
//	pred    := path op literal | path CONTAINS string | EXISTS path
//	op      := = | != | < | <= | > | >=
//	path    := ('/'|'//') step {('/'|'//') step}   (step may be '*')
package piql

import (
	"fmt"
	"strconv"
	"strings"

	"privateiye/internal/xmltree"
)

// Agg enumerates PIQL aggregate functions. AggNone marks a plain value
// return.
type Agg int

// Aggregates.
const (
	AggNone Agg = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
	AggStdDev
)

// String returns the keyword for the aggregate.
func (a Agg) String() string {
	switch a {
	case AggNone:
		return ""
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggStdDev:
		return "STDDEV"
	}
	return fmt.Sprintf("Agg(%d)", int(a))
}

// ReturnItem is one output of a query.
type ReturnItem struct {
	Agg  Agg
	Path *xmltree.PathPattern // nil only for COUNT(*)
	As   string               // output name; derived from path if empty
}

// Name returns the output column name.
func (ri ReturnItem) Name() string {
	if ri.As != "" {
		return ri.As
	}
	if ri.Path == nil {
		return "count"
	}
	p := ri.Path.String()
	if i := strings.LastIndex(p, "/"); i >= 0 {
		p = p[i+1:]
	}
	if ri.Agg != AggNone {
		return strings.ToLower(ri.Agg.String()) + "_" + p
	}
	return p
}

// CmpOp is a comparison operator in predicates.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Cond is a boolean condition over a context node.
type Cond interface {
	// String renders the condition in PIQL syntax.
	String() string
}

// Comparison compares the text of nodes selected by Path against a
// literal. It holds (existential semantics) if any selected node
// satisfies the comparison. Numeric comparison applies when both sides
// parse as numbers.
type Comparison struct {
	Path  *xmltree.PathPattern
	Op    CmpOp
	Value string
}

// String implements Cond.
func (c *Comparison) String() string {
	return fmt.Sprintf("%s %s %s", c.Path, c.Op, quoteLiteral(c.Value))
}

// Contains holds if any node selected by Path has text containing Substr.
type Contains struct {
	Path   *xmltree.PathPattern
	Substr string
}

// String implements Cond.
func (c *Contains) String() string {
	return fmt.Sprintf("%s CONTAINS %s", c.Path, quoteLiteral(c.Substr))
}

// Exists holds if Path selects at least one node.
type Exists struct {
	Path *xmltree.PathPattern
}

// String implements Cond.
func (c *Exists) String() string { return "EXISTS " + c.Path.String() }

// And is conjunction.
type And struct{ L, R Cond }

// String implements Cond.
func (c *And) String() string { return "(" + c.L.String() + " AND " + c.R.String() + ")" }

// Or is disjunction.
type Or struct{ L, R Cond }

// String implements Cond.
func (c *Or) String() string { return "(" + c.L.String() + " OR " + c.R.String() + ")" }

// Not is negation.
type Not struct{ C Cond }

// String implements Cond.
func (c *Not) String() string { return "NOT " + c.C.String() }

// Query is a parsed PIQL query.
type Query struct {
	// For selects the context nodes ("rows").
	For *xmltree.PathPattern
	// Where filters context nodes; nil means all.
	Where Cond
	// GroupBy groups context nodes by the text of these paths.
	GroupBy []*xmltree.PathPattern
	// Return lists the outputs.
	Return []ReturnItem
	// OrderBy names an output column to sort by ("" = document order);
	// OrderDesc selects descending order.
	OrderBy   string
	OrderDesc bool
	// Limit truncates the result to the first Limit rows (0 = no limit).
	Limit int
	// Purpose is the requester's stated purpose (PURPOSE clause); empty
	// means unstated, which privacy policies treat as unknown (fail
	// closed).
	Purpose string
	// MaxLoss is the maximum information loss the requester tolerates in
	// the results (MAXLOSS clause); 1 if unstated.
	MaxLoss float64
}

// IsAggregate reports whether any return item aggregates.
func (q *Query) IsAggregate() bool {
	for _, ri := range q.Return {
		if ri.Agg != AggNone {
			return true
		}
	}
	return false
}

// String renders the query in canonical PIQL syntax; Parse(q.String()) is
// equivalent to q.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("FOR " + q.For.String())
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		parts := make([]string, len(q.GroupBy))
		for i, g := range q.GroupBy {
			parts[i] = g.String()
		}
		b.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	parts := make([]string, len(q.Return))
	for i, ri := range q.Return {
		switch {
		case ri.Agg == AggCount && ri.Path == nil:
			parts[i] = "COUNT(*)"
		case ri.Agg != AggNone:
			parts[i] = fmt.Sprintf("%s(%s)", ri.Agg, ri.Path)
		default:
			parts[i] = ri.Path.String()
		}
		if ri.As != "" {
			parts[i] += " AS " + ri.As
		}
	}
	b.WriteString(" RETURN " + strings.Join(parts, ", "))
	if q.OrderBy != "" {
		b.WriteString(" ORDER BY " + q.OrderBy)
		if q.OrderDesc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(q.Limit))
	}
	if q.Purpose != "" {
		b.WriteString(" PURPOSE " + q.Purpose)
	}
	if q.MaxLoss < 1 {
		b.WriteString(" MAXLOSS " + strconv.FormatFloat(q.MaxLoss, 'g', -1, 64))
	}
	return b.String()
}

func quoteLiteral(s string) string {
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
