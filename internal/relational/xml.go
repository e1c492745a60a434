package relational

import "privateiye/internal/xmltree"

// ResultToXML renders a query result as an XML tree in the wire shape the
// paper's XML Transformer produces at a source: a <result> root with one
// <row> element per tuple and one child element per column.
func ResultToXML(res *Result) *xmltree.Node {
	root := xmltree.NewElem("result")
	names := res.Schema.Names()
	for _, r := range res.Rows {
		row := xmltree.NewElem("row")
		for i, n := range names {
			e := xmltree.NewText(sanitizeElemName(n), r[i].String())
			if r[i].IsNull {
				e.SetAttr("null", "true")
			}
			row.Append(e)
		}
		root.Append(row)
	}
	return root
}

// TableToXML renders a whole table in the same shape, rooted at the table
// name. The warehouse uses this to materialize integrated results.
func TableToXML(t *Table) *xmltree.Node {
	res := &Result{Schema: t.Schema(), Rows: t.Rows()}
	root := ResultToXML(res)
	root.Name = sanitizeElemName(t.Name)
	return root
}

// TableSummary builds the structural summary a source derives from a
// relational table: /table/row/column paths, all columns leaves.
func TableSummary(t *Table) *xmltree.Summary {
	s := xmltree.NewSummary()
	doc := xmltree.NewElem(sanitizeElemName(t.Name))
	row := xmltree.NewElem("row")
	doc.Append(row)
	for _, c := range t.Schema().Columns {
		row.Append(xmltree.NewText(sanitizeElemName(c.Name), ""))
	}
	s.AddDocument(doc)
	return s
}

// sanitizeElemName maps a column name to a legal XML element name; joined
// columns like "hmo.name" carry dots that XML element names cannot.
func sanitizeElemName(n string) string {
	out := make([]rune, 0, len(n))
	for i, r := range n {
		ok := r == '_' || r == '-' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			out = append(out, r)
		} else {
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}
