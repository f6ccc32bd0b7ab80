package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

const (
	allowPrefix     = "//hanccr:allow "
	allowFilePrefix = "//hanccr:allow-file "
	allowBare       = "//hanccr:allow"
)

// allowSet indexes the suppression directives of the analyzed
// packages (keys carry the file, so one set serves a module) and maps
// each to its reason. A line-scoped allow covers its own line and the
// next (so it works both as a trailing comment and on the line above);
// a file-scoped allow, keyed on line 0, covers the whole file.
type allowSet map[allowKey]string

type allowKey struct {
	file  string
	check string
	line  int // 0 for file-scoped
}

// match reports whether a finding of check at file:line is suppressed,
// and by which documented reason.
func (a allowSet) match(check, file string, line int) (string, bool) {
	for _, l := range []int{0, line, line - 1} {
		if r, ok := a[allowKey{file, check, l}]; ok {
			return r, true
		}
	}
	return "", false
}

// collectAllows adds a package's //hanccr:allow directives to allows.
// Malformed directives — no check name, a check nobody registered, or a
// missing reason — come back as findings under the "directive"
// pseudo-check: an unreadable suppression must not
// silently suppress, and must not silently rot either.
func collectAllows(p *Package, root string, allows allowSet) []Diagnostic {
	var diags []Diagnostic
	bad := func(c *ast.Comment, msg string) {
		diags = append(diags, makeDiag(p.Fset, root, "directive", c.Pos(), msg))
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				fileScoped := false
				var rest string
				switch {
				case strings.HasPrefix(text, allowFilePrefix):
					fileScoped = true
					rest = text[len(allowFilePrefix):]
				case strings.HasPrefix(text, allowPrefix):
					rest = text[len(allowPrefix):]
				case text == allowBare || text == allowBare+"-file":
					bad(c, "hanccr:allow directive needs a check name and a reason")
					continue
				default:
					continue
				}
				check, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				reason = strings.TrimSpace(reason)
				if _, known := registry[check]; !known {
					bad(c, "hanccr:allow names unknown check "+strconv.Quote(check))
					continue
				}
				if reason == "" {
					bad(c, "hanccr:allow "+check+" has no reason; document why the finding is fine")
					continue
				}
				d := makeDiag(p.Fset, root, "directive", c.Pos(), "")
				key := allowKey{file: d.file, check: check}
				if !fileScoped {
					key.line = d.line
				}
				allows[key] = reason
			}
		}
	}
	return diags
}
