package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The reference codec: the encoding/xml decoder and the fmt-based writer
// the package shipped before its hand-written codec. The differential
// tests hold the new codec to these.

// oracleParse is Parse on top of encoding/xml's strict decoder.
func oracleParse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root, cur *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElem(t.Name.Local)
			for _, a := range t.Attr {
				n.SetAttr(a.Name.Local, a.Value)
			}
			if cur == nil {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple document roots")
				}
				root = n
			} else {
				cur.Append(n)
			}
			cur = n
		case xml.EndElement:
			if cur == nil {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			if cur != nil {
				cur.Text += strings.TrimSpace(string(t))
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	if cur != nil {
		return nil, fmt.Errorf("xmltree: unclosed element %q", cur.Name)
	}
	return root, nil
}

// oracleString is the old serializer. It quotes attribute values with
// %q after escaping them, which is wrong for values holding a backslash
// or a rune strconv does not consider printable; the new encoder writes
// such values plainly and matches it byte for byte everywhere else.
func oracleString(n *Node) string {
	var b strings.Builder
	oracleWrite(&b, n, 0)
	return b.String()
}

func oracleWrite(w *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var attrs strings.Builder
	for _, k := range keys {
		attrs.WriteString(fmt.Sprintf(" %s=%q", k, oracleEscape(n.Attrs[k])))
	}
	if len(n.Children) == 0 && n.Text == "" {
		fmt.Fprintf(w, "%s<%s%s/>\n", indent, n.Name, attrs.String())
		return
	}
	if len(n.Children) == 0 {
		fmt.Fprintf(w, "%s<%s%s>%s</%s>\n", indent, n.Name, attrs.String(), oracleEscape(n.Text), n.Name)
		return
	}
	fmt.Fprintf(w, "%s<%s%s>", indent, n.Name, attrs.String())
	w.WriteString(oracleEscape(n.Text))
	w.WriteString("\n")
	for _, c := range n.Children {
		oracleWrite(w, c, depth+1)
	}
	fmt.Fprintf(w, "%s</%s>\n", indent, n.Name)
}

func oracleEscape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}
