package lint

import (
	"go/token"
	"strings"
)

// directivePrefix marks an inline suppression comment:
//
//	//lint:ignore <rule> <reason>
//
// The directive silences findings of exactly the named rule on the
// directive's own line and on the line immediately below it — covering
// both a trailing comment on the offending line and a comment on the line
// above. The reason is mandatory; a directive without one (or without a
// rule name) is reported under the bad-ignore pseudo-rule.
const directivePrefix = "//lint:ignore"

// BadIgnoreRule is the pseudo-rule name malformed directives are reported
// under.
const BadIgnoreRule = "bad-ignore"

// StaleIgnoreRule is the pseudo-rule name for well-formed directives that
// suppressed nothing in this run. A stale ignore is worse than dead code:
// it documents a violation that no longer exists, and it will silently
// swallow the next, unrelated finding that lands on its line. Directives
// naming a rule outside the runner's active set are not reported (a
// partial-rule run cannot know whether they are live).
const StaleIgnoreRule = "stale-ignore"

// directive is one parsed //lint:ignore comment. Suppression matching is
// keyed by file AND line: a directive only covers findings in its own
// file, never same-numbered lines elsewhere in the package.
type directive struct {
	rule string
	file string
	line int
	pos  token.Position
	used bool
}

// applySuppressions filters findings covered by well-formed //lint:ignore
// directives anywhere in pkgs, appends a bad-ignore finding for every
// malformed directive, and a stale-ignore finding for every live-rule
// directive that suppressed nothing.
func (r *Runner) applySuppressions(pkgs []*Package, findings []Finding) []Finding {
	var dirs []*directive
	var out []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
					if len(fields) < 2 {
						out = append(out, Finding{
							Rule:    BadIgnoreRule,
							Pos:     pos,
							File:    pos.Filename,
							Line:    pos.Line,
							Col:     pos.Column,
							Message: "malformed directive: want //lint:ignore <rule> <reason>",
						})
						continue
					}
					dirs = append(dirs, &directive{rule: fields[0], file: pos.Filename, line: pos.Line, pos: pos})
				}
			}
		}
	}
	for _, f := range findings {
		if d := matchDirective(dirs, f); d != nil {
			d.used = true
			continue
		}
		out = append(out, f)
	}
	active := map[string]bool{}
	for _, rule := range r.Rules {
		active[rule.Name()] = true
	}
	for _, d := range dirs {
		if d.used || !active[d.rule] {
			continue
		}
		out = append(out, Finding{
			Rule:    StaleIgnoreRule,
			Pos:     d.pos,
			File:    d.pos.Filename,
			Line:    d.pos.Line,
			Col:     d.pos.Column,
			Message: "//lint:ignore " + d.rule + " suppresses nothing; delete the stale directive (or fix the rule name)",
		})
	}
	return out
}

// matchDirective returns the first directive covering f, or nil. Every
// matching directive counts as used even if several cover the same line.
func matchDirective(dirs []*directive, f Finding) *directive {
	var hit *directive
	for _, d := range dirs {
		if d.rule == f.Rule && d.file == f.File && (d.line == f.Line || d.line == f.Line-1) {
			d.used = true
			if hit == nil {
				hit = d
			}
		}
	}
	return hit
}
