package script

import (
	"fmt"
	"strconv"
)

// The parser. Grammar (comments and whitespace elided):
//
//	program := fndecl*
//	fndecl  := "fn" IDENT "(" [ IDENT ("," IDENT)* ] ")" block
//	block   := "{" ( stmt [ ";" ] )* "}"
//	stmt    := "let" IDENT "=" expr
//	         | IDENT "=" expr
//	         | "if" expr block [ "else" (block | if-stmt) ]
//	         | "while" expr block
//	         | "return" [ expr ]
//	         | expr
//	expr    := or
//	or      := and  ( "||" and )*
//	and     := cmp  ( "&&" cmp )*
//	cmp     := add  [ ("=="|"!="|"<"|"<="|">"|">=") add ]   (non-chaining)
//	add     := mul  ( ("+"|"-") mul )*
//	mul     := unary ( ("*"|"/"|"%") unary )*
//	unary   := ("!"|"-") unary | primary
//	primary := INT | STRING | "true" | "false" | IDENT
//	         | IDENT "(" [ expr ("," expr)* ] ")" | "(" expr ")"
//
// There are no user-defined function calls: a call resolves to a pure
// builtin when the program is lowered or to a host builtin when it runs, so
// a program cannot recurse and the only loop construct is while — which the
// step budget bounds.

// maxDepth bounds recursive nesting (parenthesized expressions, call
// arguments, unary chains, nested blocks) so hostile input cannot blow the
// parser's or evaluator's stack.
const maxDepth = 64

// maxParams bounds a function's parameter count.
const maxParams = 8

type fnDecl struct {
	name   string
	params []string
	body   []stmt
	line   int
	low    *loweredFn // what runs; the AST stays for the tests' printer and reference
}

type stmt interface{ stmtLine() int }

type letStmt struct {
	name string
	x    expr
	line int
}

type assignStmt struct {
	name string
	x    expr
	line int
}

type ifStmt struct {
	cond expr
	then []stmt
	// els is nil (no else), a block, or a single nested ifStmt (else-if).
	els  []stmt
	line int
}

type whileStmt struct {
	cond expr
	body []stmt
	line int
}

type returnStmt struct {
	x    expr // nil for a bare return
	line int
}

type exprStmt struct {
	x    expr
	line int
}

func (s *letStmt) stmtLine() int    { return s.line }
func (s *assignStmt) stmtLine() int { return s.line }
func (s *ifStmt) stmtLine() int     { return s.line }
func (s *whileStmt) stmtLine() int  { return s.line }
func (s *returnStmt) stmtLine() int { return s.line }
func (s *exprStmt) stmtLine() int   { return s.line }

type expr interface{ exprLine() int }

type intLit struct {
	v    int64
	line int
}

type strLit struct {
	v    string
	line int
}

type boolLit struct {
	v    bool
	line int
}

type varRef struct {
	name string
	line int
}

type callExpr struct {
	fn   string
	args []expr
	line int
}

type unaryExpr struct {
	op   string
	x    expr
	line int
}

type binExpr struct {
	op   string
	x, y expr
	line int
}

func (e *intLit) exprLine() int    { return e.line }
func (e *strLit) exprLine() int    { return e.line }
func (e *boolLit) exprLine() int   { return e.line }
func (e *varRef) exprLine() int    { return e.line }
func (e *callExpr) exprLine() int  { return e.line }
func (e *unaryExpr) exprLine() int { return e.line }
func (e *binExpr) exprLine() int   { return e.line }

var keywords = map[string]bool{
	"fn": true, "let": true, "if": true, "else": true,
	"while": true, "return": true, "true": true, "false": true,
}

// Program is one compiled, immutable script: a set of named functions. A
// Program is safe for concurrent Call invocations — evaluation state lives
// entirely in the call's frame.
type Program struct {
	src   string
	fns   map[string]*fnDecl
	order []string
}

// Compile lexes, parses, and validates src. All errors are *Error with
// Class == ClassCompile.
func Compile(src string) (*Program, error) {
	p, err := compile(src)
	if err != nil {
		counters.compileErrors.Add(1)
		return nil, err
	}
	counters.compiles.Add(1)
	return p, nil
}

func compile(src string) (*Program, *Error) {
	toks, lerr := lex(src)
	if lerr != nil {
		return nil, lerr
	}
	ps := &parser{toks: toks}
	prog := &Program{src: src, fns: map[string]*fnDecl{}}
	for ps.peek().kind != tokEOF {
		fn, err := ps.parseFn()
		if err != nil {
			return nil, err
		}
		if _, dup := prog.fns[fn.name]; dup {
			return nil, &Error{Class: ClassCompile, Line: fn.line, Msg: "duplicate function " + fn.name}
		}
		fn.low = lowerFn(fn)
		prog.fns[fn.name] = fn
		prog.order = append(prog.order, fn.name)
	}
	if len(prog.order) == 0 {
		return nil, &Error{Class: ClassCompile, Line: 1, Msg: "program declares no functions"}
	}
	return prog, nil
}

// Source returns the text the program was compiled from.
func (p *Program) Source() string { return p.src }

// Funcs lists the program's function names in declaration order.
func (p *Program) Funcs() []string { return append([]string(nil), p.order...) }

// FuncStats is one function's invocations, and the evaluation steps they
// charged, since its program was compiled (a re-Put starts a new program).
type FuncStats struct {
	Name  string `json:"name"`
	Calls int64  `json:"calls"`
	Steps int64  `json:"steps"`
}

// Stats reports every function's totals, in declaration order.
func (p *Program) Stats() []FuncStats {
	out := make([]FuncStats, len(p.order))
	for i, name := range p.order {
		lf := p.fns[name].low
		out[i] = FuncStats{Name: name, Calls: lf.calls.Load(), Steps: lf.steps.Load()}
	}
	return out
}

type parser struct {
	toks  []token
	pos   int
	depth int
}

func (ps *parser) peek() token { return ps.toks[ps.pos] }

func (ps *parser) next() token {
	t := ps.toks[ps.pos]
	if t.kind != tokEOF {
		ps.pos++
	}
	return t
}

func (ps *parser) errf(line int, format string, args ...any) *Error {
	return &Error{Class: ClassCompile, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (ps *parser) expectPunct(p string) *Error {
	t := ps.next()
	if t.kind != tokPunct || t.text != p {
		return ps.errf(t.line, "expected %q, got %s", p, describe(t))
	}
	return nil
}

func describe(t token) string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokStr:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

func (ps *parser) isPunct(p string) bool {
	t := ps.peek()
	return t.kind == tokPunct && t.text == p
}

func (ps *parser) isKeyword(k string) bool {
	t := ps.peek()
	return t.kind == tokIdent && t.text == k
}

func (ps *parser) enter(line int) *Error {
	ps.depth++
	if ps.depth > maxDepth {
		return ps.errf(line, "nesting exceeds depth %d", maxDepth)
	}
	return nil
}

func (ps *parser) leave() { ps.depth-- }

func (ps *parser) parseFn() (*fnDecl, *Error) {
	t := ps.next()
	if t.kind != tokIdent || t.text != "fn" {
		return nil, ps.errf(t.line, "expected \"fn\", got %s", describe(t))
	}
	name := ps.next()
	if name.kind != tokIdent || keywords[name.text] {
		return nil, ps.errf(name.line, "expected function name, got %s", describe(name))
	}
	if err := ps.expectPunct("("); err != nil {
		return nil, err
	}
	fn := &fnDecl{name: name.text, line: t.line}
	seen := map[string]bool{}
	for !ps.isPunct(")") {
		if len(fn.params) > 0 {
			if err := ps.expectPunct(","); err != nil {
				return nil, err
			}
		}
		p := ps.next()
		if p.kind != tokIdent || keywords[p.text] {
			return nil, ps.errf(p.line, "expected parameter name, got %s", describe(p))
		}
		if seen[p.text] {
			return nil, ps.errf(p.line, "duplicate parameter %s", p.text)
		}
		seen[p.text] = true
		fn.params = append(fn.params, p.text)
		if len(fn.params) > maxParams {
			return nil, ps.errf(p.line, "more than %d parameters", maxParams)
		}
	}
	ps.next() // ")"
	body, err := ps.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.body = body
	return fn, nil
}

func (ps *parser) parseBlock() ([]stmt, *Error) {
	open := ps.peek()
	if err := ps.expectPunct("{"); err != nil {
		return nil, err
	}
	if err := ps.enter(open.line); err != nil {
		return nil, err
	}
	defer ps.leave()
	stmts := []stmt{}
	for !ps.isPunct("}") {
		if ps.peek().kind == tokEOF {
			return nil, ps.errf(ps.peek().line, "unterminated block (missing \"}\")")
		}
		s, err := ps.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if ps.isPunct(";") {
			ps.next() // the optional terminator: `a; -b` is two statements, `a -b` one
		}
	}
	ps.next() // "}"
	return stmts, nil
}

func (ps *parser) parseStmt() (stmt, *Error) {
	t := ps.peek()
	switch {
	case ps.isKeyword("let"):
		ps.next()
		name := ps.next()
		if name.kind != tokIdent || keywords[name.text] {
			return nil, ps.errf(name.line, "expected variable name, got %s", describe(name))
		}
		if err := ps.expectPunct("="); err != nil {
			return nil, err
		}
		x, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		return &letStmt{name: name.text, x: x, line: t.line}, nil
	case ps.isKeyword("if"):
		return ps.parseIf()
	case ps.isKeyword("while"):
		ps.next()
		cond, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := ps.parseBlock()
		if err != nil {
			return nil, err
		}
		return &whileStmt{cond: cond, body: body, line: t.line}, nil
	case ps.isKeyword("return"):
		ps.next()
		// A bare return ends the statement when the next token cannot start
		// an expression ("}", ";" or EOF).
		if ps.isPunct("}") || ps.isPunct(";") || ps.peek().kind == tokEOF {
			return &returnStmt{line: t.line}, nil
		}
		x, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		return &returnStmt{x: x, line: t.line}, nil
	case t.kind == tokIdent && !keywords[t.text] && ps.toks[ps.pos+1].kind == tokPunct && ps.toks[ps.pos+1].text == "=":
		ps.next() // name
		ps.next() // "="
		x, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		return &assignStmt{name: t.text, x: x, line: t.line}, nil
	default:
		x, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		return &exprStmt{x: x, line: t.line}, nil
	}
}

func (ps *parser) parseIf() (stmt, *Error) {
	t := ps.next() // "if"
	cond, err := ps.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := ps.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &ifStmt{cond: cond, then: then, line: t.line}
	if ps.isKeyword("else") {
		ps.next()
		if ps.isKeyword("if") {
			if err := ps.enter(ps.peek().line); err != nil {
				return nil, err
			}
			nested, perr := ps.parseIf()
			ps.leave()
			if perr != nil {
				return nil, perr
			}
			s.els = []stmt{nested}
		} else {
			els, perr := ps.parseBlock()
			if perr != nil {
				return nil, perr
			}
			s.els = els
		}
	}
	return s, nil
}

// Binary operator precedence levels (higher binds tighter). cmp (level 3)
// is non-chaining: a < b < c is a parse error.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5, "%": 5,
}

func (ps *parser) parseExpr() (expr, *Error) { return ps.parseBin(1) }

func (ps *parser) parseBin(minPrec int) (expr, *Error) {
	x, err := ps.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := ps.peek()
		if t.kind != tokPunct {
			return x, nil
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			return x, nil
		}
		ps.next()
		// Left-associative: the right operand binds at prec+1. For the
		// non-chaining comparison level the right operand also binds at
		// prec+1, which makes a second comparison at the same level
		// unreachable without parentheses — a < b < c fails below.
		y, err := ps.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		if prec == binPrec["=="] {
			if n := ps.peek(); n.kind == tokPunct && binPrec[n.text] == prec {
				return nil, ps.errf(n.line, "comparison chains need parentheses")
			}
		}
		x = &binExpr{op: t.text, x: x, y: y, line: t.line}
	}
}

func (ps *parser) parseUnary() (expr, *Error) {
	t := ps.peek()
	if t.kind == tokPunct && (t.text == "!" || t.text == "-") {
		ps.next()
		if err := ps.enter(t.line); err != nil {
			return nil, err
		}
		x, perr := ps.parseUnary()
		ps.leave()
		if perr != nil {
			return nil, perr
		}
		return &unaryExpr{op: t.text, x: x, line: t.line}, nil
	}
	return ps.parsePrimary()
}

func (ps *parser) parsePrimary() (expr, *Error) {
	t := ps.next()
	switch t.kind {
	case tokInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, ps.errf(t.line, "integer literal %s overflows int64", t.text)
		}
		return &intLit{v: v, line: t.line}, nil
	case tokStr:
		return &strLit{v: t.text, line: t.line}, nil
	case tokIdent:
		switch t.text {
		case "true":
			return &boolLit{v: true, line: t.line}, nil
		case "false":
			return &boolLit{v: false, line: t.line}, nil
		}
		if keywords[t.text] {
			return nil, ps.errf(t.line, "unexpected keyword %q", t.text)
		}
		if !ps.isPunct("(") {
			return &varRef{name: t.text, line: t.line}, nil
		}
		ps.next() // "("
		if err := ps.enter(t.line); err != nil {
			return nil, err
		}
		defer ps.leave()
		call := &callExpr{fn: t.text, line: t.line}
		for !ps.isPunct(")") {
			if len(call.args) > 0 {
				if err := ps.expectPunct(","); err != nil {
					return nil, err
				}
			}
			arg, err := ps.parseExpr()
			if err != nil {
				return nil, err
			}
			call.args = append(call.args, arg)
			if len(call.args) > maxParams {
				return nil, ps.errf(t.line, "more than %d call arguments", maxParams)
			}
		}
		ps.next() // ")"
		return call, nil
	case tokPunct:
		if t.text == "(" {
			if err := ps.enter(t.line); err != nil {
				return nil, err
			}
			x, perr := ps.parseExpr()
			ps.leave()
			if perr != nil {
				return nil, perr
			}
			if err := ps.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, ps.errf(t.line, "expected expression, got %s", describe(t))
}
