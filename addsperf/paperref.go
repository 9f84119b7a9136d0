package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/exper"
)

// paperAnswer is one expected answer, hand-written from the paper. It
// selects a table cell (row by first cell, column by header), a whole
// column in row order, or the off-diagonal entries of a figure's matrix.
type paperAnswer struct {
	Exp         string   `json:"exp"`
	Row         string   `json:"row"`
	Col         string   `json:"col"`
	Want        string   `json:"want"`
	WantPrefix  string   `json:"wantPrefix"`
	WantColumn  []string `json:"wantColumn"`
	Figure      string   `json:"figure"`
	OffDiagonal string   `json:"offDiagonal"`
	Paper       string   `json:"paper"`
}

//go:embed paper_reference.json
var paperReferenceJSON []byte

func paperAnswers() ([]paperAnswer, error) {
	var out []paperAnswer
	if err := json.Unmarshal(paperReferenceJSON, &out); err != nil {
		return nil, fmt.Errorf("paper_reference.json: %w", err)
	}
	return out, nil
}

// checkPaperAnswers compares the regenerated reports with every expected
// answer and returns how many answers it checked and a line per mismatch.
func checkPaperAnswers(reports []*exper.Report) (int, []string) {
	answers, err := paperAnswers()
	if err != nil {
		return 1, []string{err.Error()}
	}
	byID := map[string]*exper.Report{}
	for _, r := range reports {
		byID[r.ID] = r
	}
	var bad []string
	for _, a := range answers {
		if msg := a.check(byID[a.Exp]); msg != "" {
			bad = append(bad, fmt.Sprintf("%s: %s (%s)", a.Exp, msg, a.Paper))
		}
	}
	return len(answers), bad
}

func (a paperAnswer) check(r *exper.Report) string {
	if r == nil {
		return "report missing"
	}
	if a.Figure != "" {
		return checkOffDiagonal(r, a.Figure, a.OffDiagonal)
	}
	col := -1
	for i, h := range r.Headers {
		if h == a.Col {
			col = i
		}
	}
	if col < 0 {
		return fmt.Sprintf("no column %q", a.Col)
	}
	if a.WantColumn != nil {
		var got []string
		for _, row := range r.Rows {
			got = append(got, row[col])
		}
		if strings.Join(got, ",") != strings.Join(a.WantColumn, ",") {
			return fmt.Sprintf("column %q is %v, want %v", a.Col, got, a.WantColumn)
		}
		return ""
	}
	for _, row := range r.Rows {
		if len(row) == 0 || row[0] != a.Row {
			continue
		}
		got := row[col]
		if a.WantPrefix != "" && !strings.HasPrefix(got, a.WantPrefix) {
			return fmt.Sprintf("%s / %s is %q, want prefix %q", a.Row, a.Col, got, a.WantPrefix)
		}
		if a.WantPrefix == "" && got != a.Want {
			return fmt.Sprintf("%s / %s is %q, want %q", a.Row, a.Col, got, a.Want)
		}
		return ""
	}
	return fmt.Sprintf("no row %q", a.Row)
}

// checkOffDiagonal reads the alias matrix figure whose text starts with
// title (rows of "| name | cell | cell |") and requires every entry off the
// diagonal to read want.
func checkOffDiagonal(r *exper.Report, title, want string) string {
	for _, fig := range r.Figures {
		if !strings.HasPrefix(fig, title) {
			continue
		}
		var rows [][]string
		for _, line := range strings.Split(fig, "\n")[1:] {
			cells := strings.Split(line, "|")
			if len(cells) < 3 {
				continue
			}
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			rows = append(rows, cells[:len(cells)-1])
		}
		if len(rows) < 2 {
			return "matrix figure has no rows"
		}
		// rows[0] is the header; in data row i, cell 0 names the variable
		// and cell j+1 holds the entry for column j.
		for i, row := range rows[1:] {
			for j, cell := range row[1:] {
				if i != j && cell != want {
					return fmt.Sprintf("entry (%s,%s) is %q, want %q", row[0], rows[0][j+1], cell, want)
				}
			}
		}
		return ""
	}
	return fmt.Sprintf("no figure %q", title)
}
