package xmltree

import (
	"io"
	"slices"
	"sync"
	"unicode/utf8"
)

// The encoder appends a whole subtree into one byte buffer in a single
// pass and hands it to the writer in chunks of at least flushAt bytes,
// so a large answer costs a few large writes rather than several small
// ones per element.

const (
	flushAt = 32 << 10
	// Encoder and Parse input buffers that grew past maxPooled (a huge
	// String call or input document) are dropped rather than pinned in
	// their pool.
	maxPooled = 1 << 20
)

var encPool = sync.Pool{New: func() any { b := make([]byte, 0, flushAt+flushAt/2); return &b }}

// indentSpaces backs the indent of every line up to depth 32; deeper
// lines append it repeatedly.
const indentSpaces = "                                                                "

type encoder struct {
	buf []byte
	w   io.Writer // nil: accumulate everything (String)
	err error
}

// Encode serializes the subtree rooted at n as XML to w.
func (n *Node) Encode(w io.Writer) error {
	e := encoder{w: w}
	bp := encPool.Get().(*[]byte)
	e.buf = (*bp)[:0]
	e.node(n, 0)
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = w.Write(e.buf)
	}
	putBuf(bp, e.buf)
	return e.err
}

// String returns the XML serialization of the subtree rooted at n.
func (n *Node) String() string {
	e := encoder{}
	bp := encPool.Get().(*[]byte)
	e.buf = (*bp)[:0]
	e.node(n, 0)
	s := string(e.buf)
	putBuf(bp, e.buf)
	return s
}

func putBuf(bp *[]byte, b []byte) {
	if cap(b) > maxPooled {
		return
	}
	*bp = b[:0]
	encPool.Put(bp)
}

// node appends n at the given depth, one element per line:
//
//	<name k="v"/>                     no children, no text
//	<name k="v">text</name>           text only
//	<name k="v">text                  children (text optional)
//	  <child/>
//	</name>
func (e *encoder) node(n *Node, depth int) {
	if e.err != nil {
		return
	}
	e.indent(depth)
	e.buf = append(e.buf, '<')
	e.buf = append(e.buf, n.Name...)
	e.attrs(n.Attrs)
	switch {
	case len(n.Children) == 0 && n.Text == "":
		e.buf = append(e.buf, "/>\n"...)
	case len(n.Children) == 0:
		e.buf = append(e.buf, '>')
		e.buf = appendEscaped(e.buf, n.Text)
		e.buf = append(e.buf, "</"...)
		e.buf = append(e.buf, n.Name...)
		e.buf = append(e.buf, ">\n"...)
	default:
		e.buf = append(e.buf, '>')
		e.buf = appendEscaped(e.buf, n.Text)
		e.buf = append(e.buf, '\n')
		for _, c := range n.Children {
			e.node(c, depth+1)
		}
		e.indent(depth)
		e.buf = append(e.buf, "</"...)
		e.buf = append(e.buf, n.Name...)
		e.buf = append(e.buf, ">\n"...)
	}
	if e.w != nil && len(e.buf) >= flushAt && e.err == nil {
		_, e.err = e.w.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

func (e *encoder) indent(depth int) {
	for w := 2 * depth; w > 0; w -= len(indentSpaces) {
		e.buf = append(e.buf, indentSpaces[:min(w, len(indentSpaces))]...)
	}
}

// attrs appends the attributes in key order, each as k="escaped value".
func (e *encoder) attrs(attrs map[string]string) {
	if len(attrs) == 0 {
		return
	}
	var stack [8]string
	keys := stack[:0]
	for k := range attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e.buf = append(e.buf, ' ')
		e.buf = append(e.buf, k...)
		e.buf = append(e.buf, '=', '"')
		e.buf = appendEscaped(e.buf, attrs[k])
		e.buf = append(e.buf, '"')
	}
}

// appendEscaped appends s escaped exactly as encoding/xml.EscapeText
// escapes it: the five markup characters and tab, newline and carriage
// return become character references, and every rune outside the XML
// character range (including each invalid UTF-8 byte) becomes U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		var esc string
		width := 1
		if c < utf8.RuneSelf {
			switch c {
			case '"':
				esc = "&#34;"
			case '\'':
				esc = "&#39;"
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '\t':
				esc = "&#x9;"
			case '\n':
				esc = "&#xA;"
			case '\r':
				esc = "&#xD;"
			default:
				if c >= 0x20 {
					i++
					continue
				}
				esc = "\uFFFD"
			}
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if (r != utf8.RuneError || width > 1) && inCharRange(r) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// inCharRange reports whether r is in the XML 1.0 Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
