package lang

import (
	"fmt"

	"approxql/internal/xmltree"
)

// Parse parses an approXQL query. The grammar of the paper's syntactical
// subset, with "and" binding tighter than "or":
//
//	Query := Step
//	Step  := NAME ( "[" Expr "]" )?
//	Expr  := Term ( "or" Term )*
//	Term  := Prim ( "and" Prim )*
//	Prim  := Step | STRING | "(" Expr ")"
//
// Text selectors are normalized with the data tokenizer; a multi-word
// selector such as "piano concerto" becomes a conjunction of its words.
// Brackets and parentheses nest at most maxDepth levels deep.
func Parse(src string) (*Query, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	root, err := p.parseStep()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s after query", p.tok.kind)
	}
	return &Query{Root: root}, nil
}

// MustParse is Parse that panics on error, for tests and fixed queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// maxDepth bounds how deeply "[" and "(" nest in one query. Evaluation time
// grows steeply with nesting under a cost model that deletes and renames:
// a few kilobytes of brackets would otherwise hold an engine for minutes.
const maxDepth = 64

type parser struct {
	lex   lexer
	tok   token
	depth int // open "[" and "(" around the current token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{p.tok.pos, fmt.Sprintf(format, args...)}
}

// open consumes a "[" or "(", failing at the first one nested deeper than
// maxDepth. The caller decrements p.depth once it has consumed the closer.
func (p *parser) open() error {
	if p.depth == maxDepth {
		return p.errorf("query nested deeper than %d levels", maxDepth)
	}
	p.depth++
	return p.advance()
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errorf("expected %s, found %s", kind, p.tok.kind)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) parseStep() (*Selector, error) {
	name, err := p.expect(tokName)
	if err != nil {
		return nil, err
	}
	sel := &Selector{Name: name.text}
	if p.tok.kind != tokLBracket {
		return sel, nil
	}
	if err := p.open(); err != nil {
		return nil, err
	}
	child, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	p.depth--
	sel.Child = child
	return sel, nil
}

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &Or{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parsePrim()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parsePrim()
		if err != nil {
			return nil, err
		}
		left = &And{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parsePrim() (Expr, error) {
	switch p.tok.kind {
	case tokName:
		return p.parseStep()
	case tokString:
		tok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		return textExpr(tok)
	case tokLParen:
		if err := p.open(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		p.depth--
		return e, nil
	}
	return nil, p.errorf("expected a selector, found %s", p.tok.kind)
}

// textExpr normalizes a string literal into one Text node per word,
// conjunctively connected.
func textExpr(tok token) (Expr, error) {
	words := xmltree.NormalizeTerm(tok.text)
	if len(words) == 0 {
		return nil, &SyntaxError{tok.pos, fmt.Sprintf("text selector %q contains no words", tok.text)}
	}
	var e Expr = &Text{Term: words[0]}
	for _, w := range words[1:] {
		e = &And{Left: e, Right: &Text{Term: w}}
	}
	return e, nil
}
