package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"repro/internal/remserve"
)

// This file checks answers read off the wire against the in-process
// answer of the snapshot that served them: bit for bit on the binary
// wire, exact after parsing on JSON (where a non-finite value is null).

// jsonField returns the raw value of member name in a JSON object body:
// a number, null, string or array token, surrounding space trimmed.
func jsonField(body []byte, name string) ([]byte, error) {
	i := bytes.Index(body, []byte(`"`+name+`"`))
	if i < 0 {
		return nil, fmt.Errorf("no %q member in %.120s", name, body)
	}
	rest := bytes.TrimLeft(body[i+len(name)+2:], " \t\r\n")
	if len(rest) == 0 || rest[0] != ':' {
		return nil, fmt.Errorf("member %q has no value", name)
	}
	rest = bytes.TrimLeft(rest[1:], " \t\r\n")
	end := 0
	switch {
	case len(rest) > 0 && rest[0] == '[':
		end = bytes.IndexByte(rest, ']') + 1
	case len(rest) > 0 && rest[0] == '"':
		end = bytes.IndexByte(rest[1:], '"') + 2
	default:
		end = bytes.IndexAny(rest, ",}]")
	}
	if end <= 0 {
		return nil, fmt.Errorf("member %q is unterminated", name)
	}
	return bytes.TrimSpace(rest[:end]), nil
}

// jsonElems splits a flat JSON array token into its element tokens.
func jsonElems(arr []byte) ([][]byte, error) {
	if len(arr) < 2 || arr[0] != '[' || arr[len(arr)-1] != ']' {
		return nil, fmt.Errorf("not an array: %.40s", arr)
	}
	inner := bytes.TrimSpace(arr[1 : len(arr)-1])
	if len(inner) == 0 {
		return nil, nil
	}
	parts := bytes.Split(inner, []byte{','})
	for i, p := range parts {
		parts[i] = bytes.TrimSpace(p)
	}
	return parts, nil
}

// sameJSONFloat reports whether a JSON number token encodes want
// exactly; a non-finite want must be null.
func sameJSONFloat(tok []byte, want float64) error {
	if math.IsNaN(want) || math.IsInf(want, 0) {
		if string(tok) != "null" {
			return fmt.Errorf("got %s, want null for %v", tok, want)
		}
		return nil
	}
	got, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("bad number %q", tok)
	}
	if got != want {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}

// checkKeyed checks a JSON {"key","value","version"} answer.
func checkKeyed(body []byte, key string, val float64, ver uint64) error {
	k, err := jsonField(body, "key")
	if err != nil {
		return err
	}
	if string(k) != strconv.Quote(key) {
		return fmt.Errorf("key %s, want %q", k, key)
	}
	v, err := jsonField(body, "value")
	if err != nil {
		return err
	}
	if err := sameJSONFloat(v, val); err != nil {
		return err
	}
	return checkJSONVersion(body, ver)
}

func checkJSONVersion(body []byte, ver uint64) error {
	tok, err := jsonField(body, "version")
	if err != nil {
		return err
	}
	if string(tok) != strconv.FormatUint(ver, 10) {
		return fmt.Errorf("version %s, want %d", tok, ver)
	}
	return nil
}

// checkJSONValues checks a JSON {"values":[…],"version"} batch answer.
func checkJSONValues(body []byte, vals []float64, ver uint64) error {
	arr, err := jsonField(body, "values")
	if err != nil {
		return err
	}
	toks, err := jsonElems(arr)
	if err != nil {
		return err
	}
	if len(toks) != len(vals) {
		return fmt.Errorf("%d values, want %d", len(toks), len(vals))
	}
	for i, tok := range toks {
		if err := sameJSONFloat(tok, vals[i]); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return checkJSONVersion(body, ver)
}

// sameBits compares float slices bit for bit (NaN payloads included).
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("point %d: got %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkWireValues checks a binary batch answer.
func checkWireValues(body []byte, vals []float64, ver uint64) error {
	got, gotVer, err := remserve.DecodeBatchResponse(body)
	if err != nil {
		return err
	}
	if gotVer != ver {
		return fmt.Errorf("version %d, want %d", gotVer, ver)
	}
	return sameBits(got, vals)
}

// checkWireStrongest checks a binary best-server batch answer.
func checkWireStrongest(body []byte, keys []string, vals []float64, ver uint64) error {
	gotKeys, got, gotVer, err := remserve.DecodeStrongestResponse(body)
	if err != nil {
		return err
	}
	if gotVer != ver {
		return fmt.Errorf("version %d, want %d", gotVer, ver)
	}
	if len(gotKeys) != len(keys) {
		return fmt.Errorf("%d keys, want %d", len(gotKeys), len(keys))
	}
	for i := range keys {
		if gotKeys[i] != keys[i] {
			return fmt.Errorf("point %d: key %q, want %q", i, gotKeys[i], keys[i])
		}
	}
	return sameBits(got, vals)
}
