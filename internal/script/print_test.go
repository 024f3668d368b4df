package script

import (
	"strconv"
	"strings"
)

// The canonical printer: a pure function of the AST whose output re-parses
// to the same AST (Canonical is a fixed point of Compile∘Canonical). The
// fuzz targets assert that, which pins the grammar and the printer to each
// other: a precedence bug in either shows up as an unstable round trip.
// Nothing in the product prints programs — scripts persist and travel as
// the source text they were POSTed as — so the printer lives with the tests
// it exists for.

// Canonical renders the program in canonical form: one fn per block, tab
// indentation, minimal parentheses, escaped string literals, and a ";"
// after every statement that ends in an expression, so no statement runs on
// into the next (after `a`, `-b` would read as a - b and `(b)` as a call).
func (p *Program) Canonical() string {
	var b strings.Builder
	for i, name := range p.order {
		if i > 0 {
			b.WriteByte('\n')
		}
		printFn(&b, p.fns[name])
	}
	return b.String()
}

func printFn(b *strings.Builder, fn *fnDecl) {
	b.WriteString("fn ")
	b.WriteString(fn.name)
	b.WriteByte('(')
	for i, p := range fn.params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p)
	}
	b.WriteString(") {\n")
	printStmts(b, fn.body, 1)
	b.WriteString("}\n")
}

func printStmts(b *strings.Builder, stmts []stmt, depth int) {
	for _, s := range stmts {
		printStmt(b, s, depth)
	}
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteByte('\t')
	}
}

func printStmt(b *strings.Builder, s stmt, depth int) {
	indent(b, depth)
	switch s := s.(type) {
	case *letStmt:
		b.WriteString("let ")
		b.WriteString(s.name)
		b.WriteString(" = ")
		printExpr(b, s.x, 0, false)
		b.WriteString(";\n")
	case *assignStmt:
		b.WriteString(s.name)
		b.WriteString(" = ")
		printExpr(b, s.x, 0, false)
		b.WriteString(";\n")
	case *ifStmt:
		printIf(b, s, depth)
	case *whileStmt:
		b.WriteString("while ")
		printExpr(b, s.cond, 0, false)
		b.WriteString(" {\n")
		printStmts(b, s.body, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	case *returnStmt:
		b.WriteString("return")
		if s.x != nil {
			b.WriteByte(' ')
			printExpr(b, s.x, 0, false)
		}
		b.WriteString(";\n")
	case *exprStmt:
		printExpr(b, s.x, 0, false)
		b.WriteString(";\n")
	}
}

func printIf(b *strings.Builder, s *ifStmt, depth int) {
	b.WriteString("if ")
	printExpr(b, s.cond, 0, false)
	b.WriteString(" {\n")
	printStmts(b, s.then, depth+1)
	indent(b, depth)
	b.WriteByte('}')
	if len(s.els) == 1 {
		if nested, ok := s.els[0].(*ifStmt); ok {
			b.WriteString(" else ")
			printIf(b, nested, depth)
			return
		}
	}
	if s.els != nil {
		b.WriteString(" else {\n")
		printStmts(b, s.els, depth+1)
		indent(b, depth)
		b.WriteByte('}')
	}
	b.WriteByte('\n')
}

// exprPrec returns the precedence an expression binds at: binary operators
// per binPrec, unary above all of them, primaries tightest.
func exprPrec(e expr) int {
	switch e := e.(type) {
	case *binExpr:
		return binPrec[e.op]
	case *unaryExpr:
		return 6
	default:
		return 7
	}
}

// printExpr renders e in a context of precedence ctx; right marks the right
// operand of a binary operator (left-associative grammar, so equal
// precedence on the right — and anywhere at the non-chaining comparison
// level — needs parentheses).
func printExpr(b *strings.Builder, e expr, ctx int, right bool) {
	prec := exprPrec(e)
	need := prec < ctx || prec == ctx && (right || ctx == binPrec["=="])
	if need {
		b.WriteByte('(')
	}
	switch e := e.(type) {
	case *intLit:
		b.WriteString(strconv.FormatInt(e.v, 10))
	case *strLit:
		printString(b, e.v)
	case *boolLit:
		b.WriteString(strconv.FormatBool(e.v))
	case *varRef:
		b.WriteString(e.name)
	case *callExpr:
		b.WriteString(e.fn)
		b.WriteByte('(')
		for i, a := range e.args {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, a, 0, false)
		}
		b.WriteByte(')')
	case *unaryExpr:
		b.WriteString(e.op)
		printExpr(b, e.x, 6, false)
	case *binExpr:
		printExpr(b, e.x, prec, false)
		b.WriteByte(' ')
		b.WriteString(e.op)
		b.WriteByte(' ')
		printExpr(b, e.y, prec, true)
	}
	if need {
		b.WriteByte(')')
	}
}

func printString(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString("\\\"")
		case '\\':
			b.WriteString("\\\\")
		case '\n':
			b.WriteString("\\n")
		case '\t':
			b.WriteString("\\t")
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}
