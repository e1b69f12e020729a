package remserve

import (
	"encoding/json"
	"strconv"
)

// The JSON request codec of every POST endpoint. encoding/json decodes
// a 512-point batch through per-element reflection, which costs more
// than the 512 store lookups it feeds; scanJSONBody, one hand-rolled
// scanner, handles the exact shape well-behaved clients send —
// {"key":"…","<rows>":[[…],…]} with rows of width 3 (POST /at and
// /strongest "points") or 4 (POST /observe "observations"), any field
// order, any JSON number syntax, an ASCII key without escapes — and
// reports ok=false for anything else so decodeJSONBody can fall back
// to encoding/json for full generality. The fallback keeps behaviour
// identical on every body the fast path declines: exotic-but-legal
// bodies still parse, malformed ones still get encoding/json's
// diagnostics (pinned by TestBatchParseMatchesEncodingJSON,
// TestObserveFastPathMatchesEncodingJSON and FuzzJSONBody).

// row is one JSON body row: a point or an observation.
type row interface{ [3]float64 | [4]float64 }

type jsonScanner struct {
	b []byte
	i int
}

func (s *jsonScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// expect consumes c (after whitespace) or fails.
func (s *jsonScanner) expect(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// peek reports the next non-whitespace byte without consuming it.
func (s *jsonScanner) peek() (byte, bool) {
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i], true
	}
	return 0, false
}

// simpleString parses a JSON string of printable ASCII with no escapes
// (a MAC key). A key that needs escaping, or holds bytes encoding/json
// would rewrite (invalid UTF-8 becomes U+FFFD), takes the fallback.
func (s *jsonScanner) simpleString() (string, bool) {
	if !s.expect('"') {
		return "", false
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			// The copy detaches the key from the pooled body buffer.
			str := string(s.b[start:s.i])
			s.i++
			return str, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return "", false
		default:
			s.i++
		}
	}
	return "", false
}

// number parses one JSON number. The token must match JSON's exact
// number grammar before strconv sees it — strconv.ParseFloat is a
// superset (it also takes "+1", ".5", "1.", hex floats), and accepting
// those here would make the fast path serve bodies the generic decoder
// rejects. Range overflow ("1e999") fails ParseFloat and falls back,
// where encoding/json produces the client-visible error.
func (s *jsonScanner) number() (float64, bool) {
	s.ws()
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			s.i++
		default:
			goto done
		}
	}
done:
	tok := s.b[start:s.i]
	if !validJSONNumber(tok) {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// validJSONNumber reports whether b matches RFC 8259's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validJSONNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	return i == len(b)
}

// scanJSONBody decodes {"key":…,"<field>":[[…],…]} into key and rows.
// ok=false means "shape outside the fast subset — use encoding/json";
// it never reports success on a body the generic decoder would reject
// with an error the client needs to see, or decode differently.
func scanJSONBody[R row](body []byte, field string, key *string, rows *[]R) bool {
	s := jsonScanner{b: body}
	if !s.expect('{') {
		return false
	}
	*key = ""
	*rows = (*rows)[:0]
	sawKey, sawRows := false, false
	if c, ok := s.peek(); ok && c == '}' {
		s.i++
	} else {
		for {
			name, ok := s.simpleString()
			if !ok || !s.expect(':') {
				return false
			}
			switch {
			case name == "key" && !sawKey:
				sawKey = true
				if *key, ok = s.simpleString(); !ok {
					return false
				}
			case name == field && !sawRows:
				sawRows = true
				if !scanRows(&s, rows) {
					return false
				}
			default:
				// An unknown or duplicate field: let encoding/json decide.
				return false
			}
			if c, ok := s.peek(); ok && c == ',' {
				s.i++
				continue
			}
			break
		}
		if !s.expect('}') {
			return false
		}
	}
	s.ws()
	return s.i == len(s.b)
}

// scanRows parses [[…],…], every row exactly len(R) numbers wide.
func scanRows[R row](s *jsonScanner, rows *[]R) bool {
	if !s.expect('[') {
		return false
	}
	if c, ok := s.peek(); ok && c == ']' {
		s.i++
		return true
	}
	for {
		if !s.expect('[') {
			return false
		}
		var r R
		for d := 0; d < len(r); d++ {
			v, ok := s.number()
			if !ok {
				return false
			}
			r[d] = v
			if d < len(r)-1 && !s.expect(',') {
				return false
			}
		}
		if !s.expect(']') {
			return false
		}
		*rows = append(*rows, r)
		if c, ok := s.peek(); ok && c == ',' {
			s.i++
			continue
		}
		return s.expect(']')
	}
}

// decodeJSONBody is the one JSON request decoder: the fast scanner,
// the encoding/json fallback into req (the *batchReq or *observeReq
// whose Key and rows field key and rows point into — its type name is
// part of encoding/json's diagnostics, so each endpoint keeps its own),
// then the finiteness check. what names the body in errors ("batch",
// "observe"); field is the rows member, whose singular names a row.
func decodeJSONBody[R row](body []byte, req any, key *string, rows *[]R, field, what string) *wireError {
	if !scanJSONBody(body, field, key, rows) {
		*key, *rows = "", (*rows)[:0]
		if err := json.Unmarshal(body, req); err != nil {
			return wireErrorf(400, "remserve: bad %s body: %s", what, err.Error())
		}
	}
	for i, r := range *rows {
		for d := 0; d < len(r); d++ {
			if !finite(r[d]) {
				return wireErrorf(400, "remserve: %s %d is not finite", field[:len(field)-1], i)
			}
		}
	}
	return nil
}
