package actionlog

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// defaultStopwords are high-frequency English function words plus a few
// academic-title fillers; they never become model keywords.
var defaultStopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "in": true,
	"into": true, "is": true, "it": true, "its": true, "of": true,
	"on": true, "or": true, "over": true, "that": true, "the": true,
	"to": true, "via": true, "with": true, "using": true, "based": true,
	"towards": true, "toward": true, "approach": true, "method": true,
	"new": true, "novel": true, "study": true, "analysis": true,
}

// Tokenizer turns free text (paper titles, ad copy) into model keywords:
// lowercase alphabetic tokens, stopwords removed, short tokens dropped.
type Tokenizer struct {
	// MinLen is the minimum keyword length (default 3 when zero).
	MinLen int
	// Stopwords overrides the default stopword set when non-nil.
	Stopwords map[string]bool
}

// Tokenize extracts keywords from text, preserving first-occurrence
// order and deduplicating.
func (t Tokenizer) Tokenize(text string) []string {
	b := t.AppendTokens(nil, text)
	if len(b) == 0 {
		return nil
	}
	return strings.Split(string(b), " ")
}

// maxScanTokens is how many kept tokens AppendTokens deduplicates by
// scanning what it wrote; past it, a set keeps long texts linear.
const maxScanTokens = 16

// AppendTokens appends the keywords of text to dst, single-space
// separated: lowercase runs of ASCII letters and digits, short tokens,
// stopwords and repeats dropped, first-occurrence order kept. ASCII
// text is folded in place without allocating; other text is lowercased
// with strings.ToLower first, since Unicode lowercasing can map a
// non-ASCII rune onto a token letter (every byte of a remaining
// non-ASCII rune separates tokens).
func (t Tokenizer) AppendTokens(dst []byte, text string) []byte {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			text = strings.ToLower(text)
			break
		}
	}
	minLen, stop := t.config()
	start, kept := len(dst), 0
	var seen map[string]bool // built once kept passes maxScanTokens
	for i := 0; i < len(text); {
		if !isTokenByte(text[i]) {
			i++
			continue
		}
		mark := len(dst)
		if mark > start {
			dst = append(dst, ' ')
		}
		w0 := len(dst)
		for ; i < len(text) && isTokenByte(text[i]); i++ {
			c := text[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
		}
		w := dst[w0:]
		dup := seen[string(w)]
		if seen == nil {
			dup = hasToken(dst[start:mark], w)
		}
		if len(w) < minLen || stop[string(w)] || dup {
			dst = dst[:mark]
			continue
		}
		if kept++; seen != nil {
			seen[string(w)] = true
		} else if kept == maxScanTokens {
			seen = make(map[string]bool)
			for _, tok := range bytes.Split(dst[start:], []byte{' '}) {
				seen[string(tok)] = true
			}
		}
	}
	return dst
}

// config resolves the zero-value defaults.
func (t Tokenizer) config() (minLen int, stop map[string]bool) {
	minLen = t.MinLen
	if minLen == 0 {
		minLen = 3
	}
	stop = t.Stopwords
	if stop == nil {
		stop = defaultStopwords
	}
	return minLen, stop
}

func isTokenByte(c byte) bool {
	return ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// hasToken reports whether the space-separated list holds w.
func hasToken(list, w []byte) bool {
	for len(list) > 0 {
		tok := list
		if i := bytes.IndexByte(list, ' '); i >= 0 {
			tok, list = list[:i], list[i+1:]
		} else {
			list = nil
		}
		if bytes.Equal(tok, w) {
			return true
		}
	}
	return false
}
