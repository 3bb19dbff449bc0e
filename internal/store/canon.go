package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// canonicalize appends the canonical form of raw, a compact json.Marshal
// encoding, to dst: every object's members sorted by key, everything else
// copied verbatim. The bytes equal what decoding raw into generic values
// (numbers kept as json.Number) and marshalling them again produces, but in
// one pass with no value tree. The one token that round trip rewrites is
// the escape json.Marshal writes for each invalid UTF-8 byte, `\ufffd`,
// which decodes to U+FFFD and re-encodes as its raw bytes; canonicalize
// rewrites it the same way.
func canonicalize(dst, raw []byte) ([]byte, error) {
	c := canonicalizer{in: raw}
	out, err := c.value(dst)
	if err == nil && c.pos != len(raw) {
		err = c.syntaxError()
	}
	return out, err
}

// canonicalizer is canonicalize's cursor over its input.
type canonicalizer struct {
	in  []byte
	pos int
	// members is a stack of the members of the objects being parsed: an
	// object's members sit above those of the objects enclosing it.
	members []member
	// body holds an object's members while they are written back sorted.
	body []byte
}

// member locates one object member in the output: the key token spans
// [lo, colon) and the whole member [lo, hi), both relative to the object's
// start. key is the decoded key the members are sorted by.
type member struct {
	lo, colon, hi int
	key           []byte
}

// ufffd is json.Marshal's escape for an invalid UTF-8 byte.
const ufffd = `\ufffd`

func (c *canonicalizer) syntaxError() error {
	return fmt.Errorf("store: malformed JSON at offset %d", c.pos)
}

func (c *canonicalizer) peek() byte {
	if c.pos < len(c.in) {
		return c.in[c.pos]
	}
	return 0
}

func (c *canonicalizer) value(out []byte) ([]byte, error) {
	switch c.peek() {
	case '{':
		return c.object(out)
	case '[':
		return c.array(out)
	case '"':
		return c.str(out)
	}
	// A number, true, false or null: copied up to the next delimiter.
	start := c.pos
	for c.pos < len(c.in) && strings.IndexByte(",:]}", c.in[c.pos]) < 0 {
		c.pos++
	}
	if c.pos == start {
		return out, c.syntaxError()
	}
	return append(out, c.in[start:c.pos]...), nil
}

// str copies a string token, turning each `\ufffd` escape into U+FFFD's
// raw bytes.
func (c *canonicalizer) str(out []byte) ([]byte, error) {
	mark := c.pos
	for i := c.pos + 1; i < len(c.in); i++ {
		switch c.in[i] {
		case '"':
			c.pos = i + 1
			return append(out, c.in[mark:c.pos]...), nil
		case '\\':
			if !bytes.HasPrefix(c.in[i:], []byte(ufffd)) {
				i++ // the escaped byte, which may be a quote
				continue
			}
			out = append(append(out, c.in[mark:i]...), "\uFFFD"...)
			i += len(ufffd) - 1
			mark = i + 1
		}
	}
	c.pos = len(c.in)
	return out, c.syntaxError()
}

func (c *canonicalizer) array(out []byte) ([]byte, error) {
	c.pos++
	out = append(out, '[')
	if c.peek() == ']' {
		c.pos++
		return append(out, ']'), nil
	}
	for {
		var err error
		if out, err = c.value(out); err != nil {
			return out, err
		}
		switch c.peek() {
		case ',':
			c.pos++
			out = append(out, ',')
		case ']':
			c.pos++
			return append(out, ']'), nil
		default:
			return out, c.syntaxError()
		}
	}
}

func (c *canonicalizer) object(out []byte) ([]byte, error) {
	c.pos++
	start := len(out)
	out = append(out, '{')
	if c.peek() == '}' {
		c.pos++
		return append(out, '}'), nil
	}
	base := len(c.members)
	for {
		if c.peek() != '"' {
			return out, c.syntaxError()
		}
		m := member{lo: len(out) - start}
		var err error
		if out, err = c.str(out); err != nil {
			return out, err
		}
		m.colon = len(out) - start
		if c.peek() != ':' {
			return out, c.syntaxError()
		}
		c.pos++
		out = append(out, ':')
		if out, err = c.value(out); err != nil {
			return out, err
		}
		m.hi = len(out) - start
		c.members = append(c.members, m)
		switch c.peek() {
		case ',':
			c.pos++
		case '}':
			c.pos++
			out, err = c.sorted(out, start, c.members[base:])
			c.members = c.members[:base]
			return out, err
		default:
			return out, c.syntaxError()
		}
	}
}

// sorted rewrites the object at out[start:] — its members written back to
// back after the opening brace — with the members in key order and
// separated by commas.
func (c *canonicalizer) sorted(out []byte, start int, ms []member) ([]byte, error) {
	c.body = append(c.body[:0], out[start:]...)
	for i := range ms {
		tok := c.body[ms[i].lo:ms[i].colon]
		ms[i].key = tok[1 : len(tok)-1]
		if bytes.IndexByte(ms[i].key, '\\') >= 0 {
			var k string
			if err := json.Unmarshal(tok, &k); err != nil {
				return out, err
			}
			ms[i].key = []byte(k)
		}
	}
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.key, b.key) })
	out = append(out[:start], '{')
	for i, m := range ms {
		// Keys that decode alike collapse to one map entry, the last.
		if i+1 < len(ms) && bytes.Equal(m.key, ms[i+1].key) {
			continue
		}
		if len(out) > start+1 {
			out = append(out, ',')
		}
		out = append(out, c.body[m.lo:m.hi]...)
	}
	return append(out, '}'), nil
}
