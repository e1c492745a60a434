package xmltree

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// seedDocs are the XML literals of the repository's tests and examples
// plus documents covering each construct the parser accepts or rejects.
// FuzzParse starts from them; TestParseMatchesOracle checks each one.
var seedDocs = []string{
	patientDoc,
	`<reg><p><name>ann</name></p><p><name>bo</name></p></reg>`,
	`<reg><patient><dob>1971-03-05</dob><name>Ana</name></patient></reg>`,
	`<reg><patient><dateOfBirth>1980-11-30</dateOfBirth><patient_name>Ben</patient_name></patient></reg>`,
	`<psi-elems n="1" suite="p256"><e>02ab</e></psi-elems>`,
	`<psi-elems n="0"></psi-elems>`,
	`<psi-elems><e>zz</e></psi-elems>`,
	`<other/>`,
	`<notpolicy/>`,
	`<policy/>`,
	`<policy owner="x"><rule purpose="any" form="exact" effect="allow"/></policy>`,
	`<policy owner="x"><rule item="//a" purpose="any" form="wat" effect="allow"/></policy>`,
	`<policy owner="x" default="wat"/>`,
	`<policy owner="x"><rule item="//a" purpose="any" form="exact" effect="allow" maxloss="zz"/></policy>`,
	"<policy owner=\"subject-9\" default=\"allow\">\n  <rule item=\"//patients/row/age\" purpose=\"research\" effect=\"deny\"/>\n</policy>",
	`<integrated></integrated>`,
	`<patients><patient><ssn>123</ssn></patient></patients>`,
	`
<clinic>
  <patient><name>Ana Ito</name><ssn>111</ssn><age>67</age><zip>15213</zip><diagnosis>diabetes</diagnosis></patient>
  <patient><name>Ben Ochs</name><ssn>222</ssn><age>59</age><zip>15217</zip><diagnosis>asthma</diagnosis></patient>
  <patient><name>Cai Wu</name><ssn>333</ssn><age>71</age><zip>15213</zip><diagnosis>diabetes</diagnosis></patient>
</clinic>`,
	`
<policy owner="patient-ana" default="allow">
  <rule item="//patient/age" purpose="research" effect="deny"/>
</policy>`,
	"<reg><patient><name>P1</name><age>50</age></patient></reg>",
	"<a><b></a></b>",
	"<a></a><b></b>",
	"<a>",
	"",
	// Accepted constructs.
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	"<?xml version='1.0'?>\n<!-- c --><a><?pi data?>x<!-- y -->z</a>\n<!-- tail -->",
	`<a><![CDATA[ <b>&amp; ]]> tail</a>`,
	`<a k='single' q="dou'ble" r='dou"ble'/>`,
	`<a>&lt;&gt;&amp;&apos;&quot; &#65;&#x42;&#x1F600;</a>`,
	"<a k=\"line\r\nbreak\r\">x\ry\r\n</a>",
	"<a>  lead <b/> mid <c/> trail  </a>",
	"<a>é 中 \u00a0x\u00a0</a>",
	// Rejected constructs.
	`<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="latin1"?><a/>`,
	`<!DOCTYPE a><a/>`,
	`<a>&nbsp;</a>`,
	`<a>&#0;</a>`,
	`<a>&#xD800;</a>`,
	`<a>]]></a>`,
	`<a><!-- a -- b --></a>`,
	"<a>\x01</a>",
	"<a>\xff</a>",
	"<a>\uFFFE</a>",
	`<a x="1" x="2"/>`,
	`<a x=1/>`,
	`<a x="<"/>`,
	`<ns:a/>`,
	`text<a/>`,
}

func TestParseMatchesOracle(t *testing.T) {
	for _, doc := range seedDocs {
		checkAgainstOracle(t, []byte(doc))
	}
}

// checkAgainstOracle holds Parse to encoding/xml: whatever Parse accepts,
// the oracle accepts with an Equal tree, and the tree survives an
// Encode/Parse round trip.
func checkAgainstOracle(t *testing.T, doc []byte) {
	t.Helper()
	got, err := Parse(bytes.NewReader(doc))
	if err != nil {
		return
	}
	want, oerr := oracleParse(bytes.NewReader(doc))
	if oerr != nil {
		t.Fatalf("Parse accepted %q, which encoding/xml rejects: %v", doc, oerr)
	}
	if !Equal(got, want) {
		t.Fatalf("Parse(%q) =\n%s\nencoding/xml reads\n%s", doc, got, want)
	}
	again, err := ParseString(got.String())
	if err != nil || !Equal(got, again) {
		t.Fatalf("round trip of %q: %v\n%s", doc, err, got)
	}
}

func FuzzParse(f *testing.F) {
	for _, doc := range seedDocs {
		f.Add([]byte(doc))
	}
	f.Add([]byte(benchAnswer(3).String()))
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkAgainstOracle(t, doc)
	})
}

func TestParseAcceptsSubset(t *testing.T) {
	doc := "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n" +
		"<!-- header -->\n" +
		"<a one='1' two=\"&lt;2&gt;\">\n" +
		"  <b>x<![CDATA[<raw & data>]]>y</b>\n" +
		"  <?skip me?>\n" +
		"  <c>&amp;&apos;&quot;&#65;&#x42;&#x4e2d;</c>\n" +
		"  <d>line\r\nnext</d>\n" +
		"</a>\n"
	root := mustParse(t, doc)
	if v, _ := root.Attr("one"); v != "1" {
		t.Errorf("single-quoted attr = %q", v)
	}
	if v, _ := root.Attr("two"); v != "<2>" {
		t.Errorf("escaped attr = %q", v)
	}
	for name, want := range map[string]string{"b": "x<raw & data>y", "c": `&'"AB中`, "d": "line\nnext"} {
		if got := root.ChildText(name); got != want {
			t.Errorf("<%s> text = %q, want %q", name, got, want)
		}
	}
	if len(root.Children) != 3 {
		t.Errorf("children = %d, want 3 (PIs and comments are skipped)", len(root.Children))
	}
}

// TestAttrRoundTripBackslashAndSeparators: attribute values are written
// as "escaped value", not Go-quoted, so a Windows path in a dropped
// reason or an exotic space in a denied source's name reads back as
// written.
func TestAttrRoundTripBackslashAndSeparators(t *testing.T) {
	values := []string{
		`C:\path\to\ssn`,
		"no\u00a0break",
		"line\u2028separator",
		`both \ and ` + "\u00a0\u2028 and \"quotes\"",
	}
	for _, v := range values {
		ans := NewElem("answer").Append(NewText("dropped", "ssn").SetAttr("reason", v))
		integ := NewElem("integrated").Append(NewText("denied", "refused").SetAttr("source", v))
		for _, n := range []*Node{ans, integ} {
			back := mustParse(t, n.String())
			child := back.Children[0]
			key := "reason"
			if child.Name == "denied" {
				key = "source"
			}
			if got, _ := child.Attr(key); got != v {
				t.Errorf("<%s %s> round trip = %q, want %q\n%s", child.Name, key, got, v, n)
			}
		}
	}
}

// randomTree builds a tree whose text and attribute values mix markup
// characters, tabs, CRs, newlines and multi-byte runes. Text is trimmed
// as Parse trims it; attribute values are not.
func randomTree(rng *rand.Rand) *Node {
	names := []string{"a", "row", "e", "psi-elems", "x.y", "_z9"}
	keys := []string{"k", "source", "reason", "n", "suite"}
	alphabet := []rune{'a', 'Z', '0', ' ', '<', '>', '&', '"', '\'', '\t', '\r', '\n', '\\',
		'é', '中', '😀', '\u00a0', '\u2028', '\u0085', '\u007f', ']'}
	str := func() string {
		var b strings.Builder
		for i := rng.Intn(8); i > 0; i-- {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	var build func(depth int) *Node
	build = func(depth int) *Node {
		n := NewElem(names[rng.Intn(len(names))])
		if rng.Intn(2) == 0 {
			n.Text = strings.TrimSpace(str())
		}
		for i := rng.Intn(3); i > 0; i-- {
			n.SetAttr(keys[rng.Intn(len(keys))], str())
		}
		if depth < 3 {
			for i := rng.Intn(4); i > 0; i-- {
				n.Append(build(depth + 1))
			}
		}
		return n
	}
	return build(0)
}

// Property: Parse(Encode(t)) equals t, and Encode matches the old
// serializer byte for byte unless an attribute value holds a backslash
// or a non-printable rune (the values the old serializer mangled).
func TestCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	identical := 0
	for i := 0; i < 2000; i++ {
		tree := randomTree(rng)
		var buf bytes.Buffer
		if err := tree.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tree.String() {
			t.Fatalf("Encode and String disagree:\n%s\n%s", buf.String(), tree.String())
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("Parse(Encode(t)): %v\n%s", err, tree)
		}
		if !Equal(tree, back) {
			t.Fatalf("Parse(Encode(t)) != t:\n%s\nvs\n%s", tree, back)
		}
		if mangledAttrs(tree) {
			continue
		}
		identical++
		if got, want := tree.String(), oracleString(tree); got != want {
			t.Fatalf("Encode differs from the old serializer:\n%q\n%q", got, want)
		}
	}
	if identical < 200 {
		t.Fatalf("only %d trees were comparable byte for byte", identical)
	}
}

func mangledAttrs(n *Node) bool {
	mangled := false
	n.Walk(func(m *Node) bool {
		for _, v := range m.Attrs {
			if strings.ContainsFunc(v, func(r rune) bool { return r == '\\' || !strconv.IsPrint(r) }) {
				mangled = true
			}
		}
		return true
	})
	return mangled
}

func TestEscapeMatchesEncodingXML(t *testing.T) {
	for _, s := range []string{
		"", "plain", `<&>"'`, "\t\n\r", "\x00\x1f\x7f", "\xff\xfe", "\xc3", "é\uFFFD\uFFFE\U0010FFFF",
		"\xed\xa0\x80", "mixed <tag> & \"q\" \xe2\x80",
	} {
		if got, want := string(appendEscaped(nil, s)), oracleEscape(s); got != want {
			t.Errorf("escape(%q) = %q, encoding/xml writes %q", s, got, want)
		}
	}
	if !utf8.ValidString(string(appendEscaped(nil, "\xff"))) {
		t.Error("escaped output is not valid UTF-8")
	}
}

func TestEncodeDeepIndent(t *testing.T) {
	root := NewElem("d")
	cur := root
	for i := 0; i < 40; i++ {
		c := NewText("d", strconv.Itoa(i))
		if i < 39 {
			c.Text = ""
		}
		cur.Append(c)
		cur = c
	}
	if got, want := root.String(), oracleString(root); got != want {
		t.Fatalf("deep tree differs from the old serializer:\n%s\n%s", got, want)
	}
}

// A 2000-row answer spans several flushed chunks; the chunk seams must
// not show in the output.
func TestEncodeLargeMatchesOracle(t *testing.T) {
	doc := benchAnswer(2000)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 2*flushAt {
		t.Fatalf("answer is %d bytes; want more than two chunks", buf.Len())
	}
	if buf.String() != oracleString(doc) {
		t.Fatal("chunked Encode differs from the old serializer")
	}
}

// benchAnswer is a source answer shaped like the records-wide workload's:
// an <answer> with privacy metadata around a <result> of rows of age,
// sex and zip.
func benchAnswer(rows int) *Node {
	root := NewElem("answer").
		SetAttr("source", "hospital-1").
		SetAttr("breach", "none").
		SetAttr("technique", "").
		SetAttr("budget", "0.9").
		SetAttr("estloss", "0")
	res := NewElem("result")
	for i := 0; i < rows; i++ {
		sex := "F"
		if i%2 == 1 {
			sex = "M"
		}
		res.Append(NewElem("row").Append(
			NewText("age", strconv.Itoa(20+i%60)),
			NewText("sex", sex),
			NewText("zip", strconv.Itoa(15000+i*7%1000)),
		))
	}
	return root.Append(res)
}

var sinkNode *Node

func BenchmarkEncodeResult(b *testing.B) {
	doc := benchAnswer(2000)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := doc.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseResult(b *testing.B) {
	wire := []byte(benchAnswer(2000).String())
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := Parse(bytes.NewReader(wire))
		if err != nil {
			b.Fatal(err)
		}
		sinkNode = n
	}
}
