package kbest

import (
	"bytes"
	"strconv"
)

// Signature renders a second-level query as a canonical string: the matched
// schema class, the matched label, and the recursively signed pointer set in
// sorted order. Two entries with equal signatures retrieve identical result
// sets, so the incremental driver uses signatures to skip already-executed
// second-level queries across rounds.
func Signature(e *Entry) string { return string(AppendSignature(nil, e)) }

// AppendSignature appends Signature(e) to dst: with a reused buffer, signing
// a plan allocates nothing.
func AppendSignature(dst []byte, e *Entry) []byte { return appendSignature(dst, e, true) }

// LabelSignature is Signature without class identifiers: the label shape of
// a second-level query. Class identifiers are local to one schema, so two
// shards planning the same transformed query agree on this signature only.
func LabelSignature(e *Entry) string { return string(appendSignature(nil, e, false)) }

// Render formats a second-level query for display and debugging, e.g.
// "cd@3[title@5 and composer@9[rachmaninov@10]]", preserving the planner's
// child order.
func Render(e *Entry) string { return string(appendRender(nil, e, true)) }

// RenderLabels is Render without class identifiers:
// "cd[title and composer[rachmaninov]]".
func RenderLabels(e *Entry) string { return string(appendRender(nil, e, false)) }

// appendSignature is the canonical walker behind Signature and
// LabelSignature. The children are signed one after another at the tail of
// dst, then appended again in sorted order and moved down over the unsorted
// copies, so no per-child string is built.
func appendSignature(dst []byte, e *Entry, classes bool) []byte {
	if classes {
		dst = strconv.AppendInt(dst, int64(e.Class), 10)
		dst = append(dst, '#')
	}
	dst = append(dst, e.Label...)
	if len(e.Pointers) == 0 {
		return dst
	}
	dst = append(dst, '(')
	start := len(dst)
	var spanBuf [8][2]int
	spans := spanBuf[:0]
	for _, c := range e.Pointers {
		s := len(dst)
		dst = appendSignature(dst, c, classes)
		spans = append(spans, [2]int{s, len(dst)})
	}
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && bytes.Compare(dst[spans[j][0]:spans[j][1]], dst[spans[j-1][0]:spans[j-1][1]]) < 0; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	sorted := len(dst)
	for i, s := range spans {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, dst[s[0]:s[1]]...)
	}
	n := copy(dst[start:], dst[sorted:])
	return append(dst[:start+n], ')')
}

// appendRender is the display walker behind Render and RenderLabels.
func appendRender(dst []byte, e *Entry, classes bool) []byte {
	dst = append(dst, e.Label...)
	if classes {
		dst = append(dst, '@')
		dst = strconv.AppendInt(dst, int64(e.Class), 10)
	}
	if len(e.Pointers) == 0 {
		return dst
	}
	dst = append(dst, '[')
	for i, c := range e.Pointers {
		if i > 0 {
			dst = append(dst, " and "...)
		}
		dst = appendRender(dst, c, classes)
	}
	return append(dst, ']')
}
