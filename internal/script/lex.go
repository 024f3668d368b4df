package script

import "strings"

// The lexer. Tokens are identifiers, integer literals, double-quoted string
// literals, and a fixed punctuation set; # starts a comment that runs to end
// of line. Keywords are classified by the parser, not here.

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokStr
	tokPunct
)

type token struct {
	kind tokKind
	// text is the identifier, the literal's decoded value (for strings) or
	// digits (for ints), or the punctuation itself.
	text string
	line int
}

// maxSource bounds compilable source size: a sandbox that accepts unbounded
// programs has an unbounded compile cost.
const maxSource = 1 << 20

// punct2 lists the two-character operators, checked before single chars.
var punct2 = []string{"==", "!=", "<=", ">=", "&&", "||"}

const punct1 = "(){},;=<>+-*/%!"

func lex(src string) ([]token, *Error) {
	if len(src) > maxSource {
		return nil, &Error{Class: ClassCompile, Line: 1, Msg: "source exceeds 1 MiB"}
	}
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '"':
			val, n, err := lexString(src[i:], line)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{tokStr, val, line})
			i += n
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, token{tokInt, src[i:j], line})
			i = j
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(src) && (src[j] == '_' || src[j] >= 'a' && src[j] <= 'z' ||
				src[j] >= 'A' && src[j] <= 'Z' || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], line})
			i = j
		default:
			if i+1 < len(src) {
				two := src[i : i+2]
				found := false
				for _, p := range punct2 {
					if p == two {
						toks = append(toks, token{tokPunct, two, line})
						i += 2
						found = true
						break
					}
				}
				if found {
					continue
				}
			}
			if strings.IndexByte(punct1, c) >= 0 {
				toks = append(toks, token{tokPunct, string(c), line})
				i++
				continue
			}
			return nil, &Error{Class: ClassCompile, Line: line, Msg: "unexpected character " + quoteByte(c)}
		}
	}
	return append(toks, token{tokEOF, "", line}), nil
}

// lexString decodes one double-quoted literal starting at src[0] == '"',
// returning the decoded value and the number of source bytes consumed.
// Escapes: \" \\ \n \t. A literal newline inside a string is an error (it
// would make line attribution lie).
func lexString(src string, line int) (string, int, *Error) {
	var b strings.Builder
	for i := 1; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\n':
			return "", 0, &Error{Class: ClassCompile, Line: line, Msg: "newline in string literal"}
		case '\\':
			i++
			if i >= len(src) {
				break
			}
			switch src[i] {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return "", 0, &Error{Class: ClassCompile, Line: line, Msg: "unknown escape \\" + string(src[i])}
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", 0, &Error{Class: ClassCompile, Line: line, Msg: "unterminated string literal"}
}

func quoteByte(c byte) string {
	if c >= 0x20 && c < 0x7f {
		return "'" + string(c) + "'"
	}
	return "0x" + string("0123456789abcdef"[c>>4]) + string("0123456789abcdef"[c&0xf])
}
