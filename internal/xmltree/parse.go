package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// Parse reads one XML document from r into a Node tree. Each run of
// character data is trimmed of surrounding white space and the runs are
// concatenated onto the containing element's Text; comments and
// processing instructions are skipped.
//
// The accepted language is the subset of XML 1.0 the system itself
// writes, plus what hand-written documents commonly carry:
//
//   - element and attribute names of ASCII letters, digits, '_', '-' and
//     '.', not starting with a digit, '-' or '.' (no namespace prefixes);
//   - attribute values in single or double quotes;
//   - the five predefined entities and decimal or hexadecimal character
//     references to characters in the XML range;
//   - CDATA sections, comments, and processing instructions, including an
//     XML declaration whose version is 1.0 and whose encoding is UTF-8;
//   - CR and CRLF line ends, read as LF.
//
// Everything else is an error: a mismatched or unclosed tag, a second
// root element, non-space text outside the root, a duplicate attribute,
// an unknown entity, "]]>" in text, "--" inside a comment, a DOCTYPE or
// other <! declaration, invalid UTF-8, and any character outside the XML
// character range.
func Parse(r io.Reader) (*Node, error) {
	buf := readPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooled {
			readPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	p := parser{src: buf.Bytes(), names: map[string]string{}}
	return p.document()
}

// ParseString is Parse over a string.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// readPool recycles Parse's input buffers. Every string the parser
// returns is copied out of the buffer, so nothing references it after
// Parse returns.
var readPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// parser is one pass over a complete document. Nothing recurses: open
// elements live on an explicit stack, so nesting depth is bounded only
// by the input size.
type parser struct {
	src   []byte
	pos   int
	names map[string]string // interned element and attribute names
	open  []*Node           // open elements, innermost last
	kids  []*Node           // children of the open elements, in order
	marks []int             // where each open element's children begin in kids
	text  []byte            // decoded character data, when it had to be rewritten
	attrs []attr            // the attributes of the tag being read
	slab  []Node            // preallocated nodes, handed out one by one
}

type attr struct{ key, value string }

func (p *parser) errorf(format string, args ...any) error {
	line := 1 + bytes.Count(p.src[:min(p.pos, len(p.src))], []byte{'\n'})
	return fmt.Errorf("xmltree: parse: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) document() (*Node, error) {
	var root *Node
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c != '<' {
			if len(p.open) == 0 {
				if !isSpace(c) {
					return nil, p.errorf("text outside the root element")
				}
				p.pos++
				continue
			}
			if err := p.charData(); err != nil {
				return nil, err
			}
			continue
		}
		if p.pos+1 >= len(p.src) {
			return nil, p.errorf("unexpected EOF")
		}
		var err error
		switch p.src[p.pos+1] {
		case '/':
			err = p.endTag()
		case '?':
			err = p.procInst()
		case '!':
			err = p.bang()
		default:
			if len(p.open) == 0 && root != nil {
				return nil, p.errorf("multiple document roots")
			}
			var n *Node
			n, err = p.startTag()
			if root == nil {
				root = n
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if root == nil {
		return nil, p.errorf("empty document")
	}
	if len(p.open) > 0 {
		return nil, p.errorf("unclosed element <%s>", p.open[len(p.open)-1].Name)
	}
	return root, nil
}

// startTag reads <name attr="v" ...> or <name .../> at p.pos.
func (p *parser) startTag() (*Node, error) {
	p.pos++
	name, ok := p.name()
	if !ok {
		return nil, p.errorf("expected element name after <")
	}
	n := p.newNode(name)
	p.attrs = p.attrs[:0]
	empty := false
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, p.errorf("unexpected EOF in <%s>", name)
		}
		c := p.src[p.pos]
		if c == '>' {
			p.pos++
			break
		}
		if c == '/' {
			if p.pos+1 >= len(p.src) || p.src[p.pos+1] != '>' {
				return nil, p.errorf("expected /> in <%s>", name)
			}
			p.pos += 2
			empty = true
			break
		}
		key, ok := p.name()
		if !ok {
			return nil, p.errorf("expected attribute name in <%s>", name)
		}
		for _, a := range p.attrs {
			if a.key == key {
				return nil, p.errorf("duplicate attribute %s in <%s>", key, name)
			}
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '=' {
			return nil, p.errorf("attribute %s without = in <%s>", key, name)
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '"' && p.src[p.pos] != '\'' {
			return nil, p.errorf("unquoted value for attribute %s in <%s>", key, name)
		}
		quote := p.src[p.pos]
		p.pos++
		end := bytes.IndexByte(p.src[p.pos:], quote)
		if end < 0 {
			return nil, p.errorf("unexpected EOF in attribute %s", key)
		}
		val, err := p.chars(p.pos+end, inAttr)
		if err != nil {
			return nil, err
		}
		p.pos++ // closing quote
		p.attrs = append(p.attrs, attr{key, string(val)})
	}
	if len(p.attrs) > 0 {
		n.Attrs = make(map[string]string, len(p.attrs))
		for _, a := range p.attrs {
			n.Attrs[a.key] = a.value
		}
	}
	if len(p.open) > 0 {
		n.Parent = p.open[len(p.open)-1]
		p.kids = append(p.kids, n)
	}
	if !empty {
		p.open = append(p.open, n)
		p.marks = append(p.marks, len(p.kids))
	}
	return n, nil
}

// newNode hands out the next node of the current slab. Slabs start
// small, so a short document allocates little, and double up to
// maxSlab, so a long one allocates its nodes in a few dozen blocks
// rather than one by one.
func (p *parser) newNode(name string) *Node {
	if len(p.slab) == 0 {
		p.slab = make([]Node, min(max(2*cap(p.slab), 8), maxSlab))
	}
	n := &p.slab[0]
	p.slab = p.slab[1:]
	n.Name = name
	return n
}

const maxSlab = 256

// endTag reads </name> at p.pos and closes the innermost open element,
// which must carry the same name.
func (p *parser) endTag() error {
	p.pos += 2
	start := p.pos
	if !p.skipName() {
		return p.errorf("expected element name after </")
	}
	name := p.src[start:p.pos]
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '>' {
		return p.errorf("invalid characters in </%s>", name)
	}
	p.pos++
	top := len(p.open) - 1
	if top < 0 {
		return p.errorf("unexpected end element </%s>", name)
	}
	n := p.open[top]
	if string(name) != n.Name {
		return p.errorf("element <%s> closed by </%s>", n.Name, name)
	}
	if mark := p.marks[top]; len(p.kids) > mark {
		n.Children = make([]*Node, len(p.kids)-mark)
		copy(n.Children, p.kids[mark:])
		p.kids = p.kids[:mark]
	}
	p.open, p.marks = p.open[:top], p.marks[:top]
	return nil
}

// charData reads one run of character data inside an element, up to the
// next markup, and appends it, trimmed, to the element's Text.
func (p *parser) charData() error {
	end := bytes.IndexByte(p.src[p.pos:], '<')
	if end < 0 {
		end = len(p.src)
	} else {
		end += p.pos
	}
	run, err := p.chars(end, inText)
	if err != nil {
		return err
	}
	p.appendText(run)
	return nil
}

func (p *parser) appendText(run []byte) {
	run = bytes.TrimSpace(run)
	if len(run) == 0 {
		return
	}
	cur := p.open[len(p.open)-1]
	if cur.Text == "" {
		cur.Text = string(run)
	} else {
		cur.Text += string(run)
	}
}

// procInst skips <?target ...?>. For the XML declaration it enforces what
// this parser can read: version 1.0 and the UTF-8 encoding.
func (p *parser) procInst() error {
	p.pos += 2
	start := p.pos
	if !p.skipName() {
		return p.errorf("expected target name after <?")
	}
	target := p.src[start:p.pos]
	p.skipSpace()
	end := bytes.Index(p.src[p.pos:], []byte("?>"))
	if end < 0 {
		return p.errorf("unexpected EOF in processing instruction")
	}
	body := p.src[p.pos : p.pos+end]
	if !utf8.Valid(body) {
		return p.errorf("invalid UTF-8")
	}
	if string(target) == "xml" {
		if v := declParam("version", body); v != "" && v != "1.0" {
			return p.errorf("unsupported XML version %q", v)
		}
		if enc := declParam("encoding", body); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return p.errorf("unsupported encoding %q", enc)
		}
	}
	p.pos += end + 2
	return nil
}

// declParam returns the quoted value of the first `param=` in an XML
// declaration that is directly followed by a quote, or "" if none is.
func declParam(param string, body []byte) string {
	key := []byte(param + "=")
	for rest := body; ; {
		k := bytes.Index(rest, key)
		if k < 0 || k+len(key) >= len(rest) {
			return ""
		}
		rest = rest[k+len(key):]
		if q := rest[0]; q == '"' || q == '\'' {
			v, _, ok := bytes.Cut(rest[1:], []byte{q})
			if !ok {
				return ""
			}
			return string(v)
		}
		rest = rest[1:]
	}
}

// bang reads a comment or a CDATA section. DOCTYPE and the other <!
// declarations are not part of the accepted subset.
func (p *parser) bang() error {
	rest := p.src[p.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("<!--")):
		p.pos += 4
		k := bytes.Index(p.src[p.pos:], []byte("--"))
		if k < 0 {
			return p.errorf("unexpected EOF in comment")
		}
		p.pos += k
		if p.pos+2 >= len(p.src) || p.src[p.pos+2] != '>' {
			return p.errorf(`"--" not allowed in comments`)
		}
		if !utf8.Valid(p.src[p.pos-k : p.pos]) {
			return p.errorf("invalid UTF-8")
		}
		p.pos += 3
		return nil
	case bytes.HasPrefix(rest, []byte("<![CDATA[")):
		if len(p.open) == 0 {
			return p.errorf("CDATA outside the root element")
		}
		p.pos += 9
		k := bytes.Index(p.src[p.pos:], []byte("]]>"))
		if k < 0 {
			return p.errorf("unexpected EOF in CDATA section")
		}
		run, err := p.chars(p.pos+k, inCDATA)
		if err != nil {
			return err
		}
		p.pos += 3
		p.appendText(run)
		return nil
	}
	return p.errorf("unsupported declaration (only comments and CDATA may start with <!)")
}

// Character data contexts: they differ in whether references are
// decoded, whether "]]>" is an error, and whether '<' may appear.
const (
	inText = iota
	inAttr
	inCDATA
)

// chars validates and decodes the raw character data src[p.pos:end]
// and leaves p.pos at end. The result aliases either the input, when
// nothing needed rewriting, or the parser's scratch buffer; either way
// it is only valid until the next call.
func (p *parser) chars(end, ctx int) ([]byte, error) {
	src := p.src
	start := p.pos
	seg := start // first byte not yet copied to p.text
	rewritten := false
	i := start
	for i < end {
		c := src[i]
		if !special[c] {
			i++
			continue
		}
		switch {
		case c >= utf8.RuneSelf:
			r, w := utf8.DecodeRune(src[i:end])
			if r == utf8.RuneError && w == 1 {
				p.pos = i
				return nil, p.errorf("invalid UTF-8")
			}
			if !inCharRange(r) {
				p.pos = i
				return nil, p.errorf("illegal character %U", r)
			}
			i += w
		case c == '\r':
			if !rewritten {
				p.text, rewritten = p.text[:0], true
			}
			p.text = append(p.text, src[seg:i]...)
			p.text = append(p.text, '\n')
			i++
			if i < end && src[i] == '\n' {
				i++
			}
			seg = i
		case c == '&' && ctx != inCDATA:
			if !rewritten {
				p.text, rewritten = p.text[:0], true
			}
			p.text = append(p.text, src[seg:i]...)
			next, err := p.reference(i, end)
			if err != nil {
				return nil, err
			}
			i, seg = next, next
		case c == '<' && ctx == inAttr:
			p.pos = i
			return nil, p.errorf("unescaped < in attribute value")
		case c == '>' && ctx == inText:
			if i-start >= 2 && src[i-1] == ']' && src[i-2] == ']' {
				p.pos = i
				return nil, p.errorf("unescaped ]]> outside a CDATA section")
			}
			i++
		case c < 0x20:
			p.pos = i
			return nil, p.errorf("illegal character %U", rune(c))
		default: // '&' in CDATA, '<' in CDATA, '>' outside text
			i++
		}
	}
	p.pos = end
	if !rewritten {
		return src[start:end], nil
	}
	p.text = append(p.text, src[seg:end]...)
	return p.text, nil
}

// reference decodes the entity or character reference at src[i] ('&')
// onto p.text and returns the index just past its ';'.
func (p *parser) reference(i, end int) (int, error) {
	src := p.src
	semi := bytes.IndexByte(src[i:end], ';')
	if semi < 0 {
		p.pos = i
		return 0, p.errorf("invalid character entity (no semicolon)")
	}
	ref := src[i+1 : i+semi]
	next := i + semi + 1
	if len(ref) > 1 && ref[0] == '#' {
		digits, base := ref[1:], rune(10)
		if digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		r, ok := rune(0), len(digits) > 0
		for _, d := range digits {
			v := rune(hexVal[d])
			if v >= base || r > utf8.MaxRune {
				ok = false
				break
			}
			r = r*base + v
		}
		if !ok || !inCharRange(r) {
			p.pos = i
			return 0, p.errorf("invalid character reference &%s;", ref)
		}
		p.text = utf8.AppendRune(p.text, r)
		return next, nil
	}
	var c byte
	switch string(ref) {
	case "lt":
		c = '<'
	case "gt":
		c = '>'
	case "amp":
		c = '&'
	case "apos":
		c = '\''
	case "quot":
		c = '"'
	default:
		p.pos = i
		return 0, p.errorf("invalid character entity &%s;", ref)
	}
	p.text = append(p.text, c)
	return next, nil
}

// name reads an element or attribute name at p.pos and returns it
// interned: a document repeats a handful of names many times.
func (p *parser) name() (string, bool) {
	start := p.pos
	if !p.skipName() {
		return "", false
	}
	b := p.src[start:p.pos]
	if s, ok := p.names[string(b)]; ok {
		return s, true
	}
	s := string(b)
	p.names[s] = s
	return s, true
}

// skipName advances p.pos past a name and reports whether there was one.
func (p *parser) skipName() bool {
	if p.pos >= len(p.src) || !nameStart[p.src[p.pos]] {
		return false
	}
	p.pos++
	for p.pos < len(p.src) && nameByte[p.src[p.pos]] {
		p.pos++
	}
	return true
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

var (
	// special marks the bytes chars must look at: control characters
	// (tab and newline are ordinary), markup, and the start of every
	// multi-byte sequence.
	special   [256]bool
	nameStart [256]bool
	nameByte  [256]bool
	// hexVal maps a digit byte to its value, and every other byte to 16.
	hexVal [256]byte
)

func init() {
	for c := 0; c < 256; c++ {
		special[c] = c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf ||
			c == '&' || c == '<' || c == '>'
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
		digit := c >= '0' && c <= '9'
		nameStart[c] = letter
		nameByte[c] = letter || digit || c == '-' || c == '.'
		switch {
		case digit:
			hexVal[c] = byte(c - '0')
		case c >= 'a' && c <= 'f':
			hexVal[c] = byte(c - 'a' + 10)
		case c >= 'A' && c <= 'F':
			hexVal[c] = byte(c - 'A' + 10)
		default:
			hexVal[c] = 16
		}
	}
}
