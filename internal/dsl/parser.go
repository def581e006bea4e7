package dsl

import "strconv"

// maxNesting caps how deeply an expression nests: both the height of its
// tree and how many parentheses and prefix operators enclose any point
// of it. Every pass over a policy — the parser itself, the checker,
// rendering, fingerprinting, compiling — recurses on that depth, so a
// source nested past the cap is refused with an error instead of
// exhausting the stack.
const maxNesting = 256

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
	// open counts the parentheses and prefix operators being parsed,
	// height is the tree height of the expression parsed last; both stay
	// within maxNesting.
	open, height int
}

// Parse parses and type-checks a policy definition.
func Parse(src string) (*Policy, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	pol, err := p.parsePolicy()
	if err != nil {
		return nil, err
	}
	if err := checkPolicy(pol); err != nil {
		return nil, err
	}
	return pol, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) bump() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return errf(t.line, t.col, "expected %q, found %s", s, t)
	}
	p.bump()
	return nil
}

// enter opens a parenthesis or prefix operator at t; the caller
// decrements p.open once the enclosed expression is parsed.
func (p *parser) enter(t token) error {
	p.open++
	if p.open > maxNesting {
		return errNesting(t)
	}
	return nil
}

// grow records a node at t over a subtree of height below.
func (p *parser) grow(t token, below int) error {
	p.height = below + 1
	if p.height > maxNesting {
		return errNesting(t)
	}
	return nil
}

// join builds the binary node at operator t over l, whose height was
// lh, and r, the expression parsed last.
func (p *parser) join(t token, l expr, lh int, r expr) (expr, error) {
	if err := p.grow(t, max(lh, p.height)); err != nil {
		return nil, err
	}
	return &binary{op: t.text, l: l, r: r, line: t.line, col: t.col}, nil
}

func errNesting(t token) *Error {
	return errf(t.line, t.col, "expression nests deeper than %d levels", maxNesting)
}

func (p *parser) expectIdent(s string) error {
	t := p.cur()
	if t.kind != tokIdent || t.text != s {
		return errf(t.line, t.col, "expected %q, found %s", s, t)
	}
	p.bump()
	return nil
}

func (p *parser) parsePolicy() (*Policy, error) {
	if err := p.expectIdent("policy"); err != nil {
		return nil, err
	}
	nameTok := p.cur()
	if nameTok.kind != tokIdent {
		return nil, errf(nameTok.line, nameTok.col, "expected policy name, found %s", nameTok)
	}
	p.bump()
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	pol := &Policy{Name: nameTok.text, Choose: Chooser{Name: "first"}}
	seen := map[string]bool{}
	for {
		t := p.cur()
		if t.kind == tokPunct && t.text == "}" {
			p.bump()
			break
		}
		if t.kind != tokIdent {
			return nil, errf(t.line, t.col, "expected a clause (load/filter/steal/choose/rescue), found %s", t)
		}
		clause := t.text
		p.bump()
		if seen[clause] {
			return nil, errf(t.line, t.col, "duplicate %q clause", clause)
		}
		seen[clause] = true
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		switch clause {
		case "load":
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			pol.Load = e
			pol.LoadDeclared = true
		case "filter":
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			pol.Filter = e
		case "steal":
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			pol.Steal = e
		case "choose":
			c, err := p.parseChooser()
			if err != nil {
				return nil, err
			}
			pol.Choose = c
		case "rescue":
			c, err := p.parseChooser()
			if err != nil {
				return nil, err
			}
			pol.Rescue = c
		default:
			return nil, errf(t.line, t.col, "unknown clause %q (want load, filter, steal, choose or rescue)", clause)
		}
	}
	eof := p.cur()
	if eof.kind != tokEOF {
		return nil, errf(eof.line, eof.col, "trailing input after policy body: %s", eof)
	}
	if pol.Filter == nil {
		return nil, errf(nameTok.line, nameTok.col, "policy %q has no filter clause", pol.Name)
	}
	if pol.Load == nil {
		pol.Load = &attrRef{path: []string{"self", "nthreads"}, root: rootSelf, attr: attrNThreads}
	}
	if pol.Steal == nil {
		pol.Steal = &intLit{val: 1}
	}
	return pol, nil
}

// validChoosers names the step-2 heuristics the DSL exposes.
var validChoosers = map[string]bool{"first": true, "max_load": true, "min_load": true, "random": true}

func (p *parser) parseChooser() (Chooser, error) {
	t := p.cur()
	if t.kind != tokIdent || !validChoosers[t.text] {
		return Chooser{}, errf(t.line, t.col,
			"expected a chooser (first, max_load, min_load, random), found %s", t)
	}
	p.bump()
	c := Chooser{Name: t.text}
	if t.text == "random" {
		if p.cur().kind == tokPunct && p.cur().text == "(" {
			p.bump()
			seedTok := p.cur()
			if seedTok.kind != tokInt {
				return Chooser{}, errf(seedTok.line, seedTok.col, "expected seed, found %s", seedTok)
			}
			p.bump()
			seed, err := strconv.ParseInt(seedTok.text, 10, 64)
			if err != nil {
				return Chooser{}, errf(seedTok.line, seedTok.col, "bad seed: %v", err)
			}
			c.Seed = seed
			if err := p.expectPunct(")"); err != nil {
				return Chooser{}, err
			}
		}
	}
	return c, nil
}

// Expression grammar, standard precedence climbing.

func (p *parser) parseExpr() (expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && p.cur().text == "||" {
		t, lh := p.bump(), p.height
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if l, err = p.join(t, l, lh, r); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && p.cur().text == "&&" {
		t, lh := p.bump(), p.height
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		if l, err = p.join(t, l, lh, r); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *parser) parseNot() (expr, error) {
	if p.cur().kind == tokPunct && p.cur().text == "!" {
		return p.parsePrefix(p.parseNot)
	}
	return p.parseCmp()
}

var cmpOps = map[string]bool{"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseCmp() (expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct && cmpOps[p.cur().text] {
		t, lh := p.bump(), p.height
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return p.join(t, l, lh, r)
	}
	return l, nil
}

func (p *parser) parseAdd() (expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && (p.cur().text == "+" || p.cur().text == "-") {
		t, lh := p.bump(), p.height
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		if l, err = p.join(t, l, lh, r); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *parser) parseMul() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPunct && (p.cur().text == "*" || p.cur().text == "/" || p.cur().text == "%") {
		t, lh := p.bump(), p.height
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if l, err = p.join(t, l, lh, r); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *parser) parseUnary() (expr, error) {
	if p.cur().kind == tokPunct && p.cur().text == "-" {
		return p.parsePrefix(p.parseUnary)
	}
	return p.parsePrimary()
}

// parsePrefix parses the prefix operator at the cursor applied to the
// operand that operand parses.
func (p *parser) parsePrefix(operand func() (expr, error)) (expr, error) {
	t := p.bump()
	if err := p.enter(t); err != nil {
		return nil, err
	}
	x, err := operand()
	if err != nil {
		return nil, err
	}
	p.open--
	if err := p.grow(t, p.height); err != nil {
		return nil, err
	}
	return &unary{op: t.text, x: x}, nil
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.bump()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errf(t.line, t.col, "bad number: %v", err)
		}
		p.height = 1
		return &intLit{val: v}, nil
	case t.kind == tokIdent && t.text == "true":
		p.bump()
		p.height = 1
		return &boolLit{val: true}, nil
	case t.kind == tokIdent && t.text == "false":
		p.bump()
		p.height = 1
		return &boolLit{val: false}, nil
	case t.kind == tokIdent:
		p.height = 1
		return p.parsePath()
	case t.kind == tokPunct && t.text == "(":
		p.bump()
		if err := p.enter(t); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.open--
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errf(t.line, t.col, "expected an expression, found %s", t)
}

func (p *parser) parsePath() (expr, error) {
	t := p.cur()
	ref := &attrRef{line: t.line, col: t.col}
	for {
		id := p.cur()
		if id.kind != tokIdent {
			return nil, errf(id.line, id.col, "expected identifier in path, found %s", id)
		}
		p.bump()
		ref.path = append(ref.path, id.text)
		// Tolerate Listing-1 style method parens: load() ≡ load.
		if p.cur().kind == tokPunct && p.cur().text == "(" &&
			p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == ")" {
			p.bump()
			p.bump()
		}
		if p.cur().kind == tokPunct && p.cur().text == "." {
			p.bump()
			continue
		}
		return ref, nil
	}
}
