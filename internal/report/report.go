// Package report renders study results for the decision maker: Markdown
// tables (Table I of the paper), ASCII and SVG scatter plots with the
// Pareto front highlighted (Figures 4–6), and CSV/JSON export for external
// tooling.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rldecide/internal/core"
	"rldecide/internal/pareto"
)

// Table renders the report's trials as a Markdown table: one row per
// trial, parameter columns first (sorted by name), then metric columns.
// Rows are rendered into one reused line buffer (cells appended with
// strconv, no per-row Join), so the render cost is a handful of
// allocations however many trials the table has.
func Table(w io.Writer, rep *core.Report) error {
	trials := rep.Completed()
	if len(trials) == 0 {
		_, err := fmt.Fprintln(w, "(no completed trials)")
		return err
	}
	// Assignments are name-sorted, so the bindings of any complete trial
	// give the parameter column order directly.
	ncols := 1 + len(trials[0].Params) + len(rep.Metrics)
	header := make([]string, 1, ncols)
	header[0] = "#"
	for _, b := range trials[0].Params {
		header = append(header, b.Name)
	}
	for _, m := range rep.Metrics {
		label := m.Name
		if m.Unit != "" {
			label += " (" + m.Unit + ")"
		}
		header = append(header, label)
	}
	if _, err := fmt.Fprintln(w, "| "+strings.Join(header, " | ")+" |"); err != nil {
		return err
	}
	line := make([]byte, 0, 128)
	line = append(line, '|')
	for range header {
		line = append(line, " --- |"...)
	}
	line = append(line, '\n')
	if _, err := w.Write(line); err != nil {
		return err
	}
	for _, t := range trials {
		line = line[:0]
		line = append(line, '|', ' ')
		line = strconv.AppendInt(line, int64(t.ID), 10)
		for _, b := range t.Params {
			line = append(line, ' ', '|', ' ')
			line = b.Value.AppendText(line)
		}
		for _, m := range rep.Metrics {
			line = append(line, ' ', '|', ' ')
			line = strconv.AppendFloat(line, t.Values.At(m.Name), 'f', 3, 64)
		}
		line = append(line, ' ', '|', '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes the trials as comma-separated values with a header row.
func CSV(w io.Writer, rep *core.Report) error {
	trials := rep.Completed()
	if len(trials) == 0 {
		return fmt.Errorf("report: no completed trials")
	}
	paramNames := make([]string, 0, len(trials[0].Params))
	for _, b := range trials[0].Params {
		paramNames = append(paramNames, b.Name)
	}
	cols := append([]string{"id"}, paramNames...)
	for _, m := range rep.Metrics {
		cols = append(cols, m.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, t := range trials {
		row := []string{fmt.Sprintf("%d", t.ID)}
		for _, p := range paramNames {
			row = append(row, t.Params.Value(p).String())
		}
		for _, m := range rep.Metrics {
			row = append(row, fmt.Sprintf("%g", t.Values.At(m.Name)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// jsonTrial is the JSON export shape.
type jsonTrial struct {
	ID     int                `json:"id"`
	Params map[string]string  `json:"params"`
	Values map[string]float64 `json:"values"`
	Pruned bool               `json:"pruned,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// JSON writes the full report (including failed/pruned trials) as JSON.
func JSON(w io.Writer, rep *core.Report) error {
	out := struct {
		CaseStudy string      `json:"case_study"`
		Explorer  string      `json:"explorer"`
		Ranker    string      `json:"ranker"`
		Metrics   []string    `json:"metrics"`
		Trials    []jsonTrial `json:"trials"`
		Fronts    [][]int     `json:"fronts,omitempty"`
	}{
		CaseStudy: rep.CaseStudy.Name,
		Explorer:  rep.Explorer,
		Ranker:    rep.Ranker,
		Fronts:    rep.Ranking.Fronts,
	}
	for _, m := range rep.Metrics {
		out.Metrics = append(out.Metrics, m.Name)
	}
	for _, t := range rep.Trials {
		jt := jsonTrial{ID: t.ID, Params: map[string]string{}, Values: t.Values.Map(), Pruned: t.Pruned}
		for _, b := range t.Params {
			jt.Params[b.Name] = b.Value.String()
		}
		if t.Err != nil {
			jt.Error = t.Err.Error()
		}
		out.Trials = append(out.Trials, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ScatterSpec configures a 2-D trade-off plot between two metrics.
type ScatterSpec struct {
	X, Y  string  // metric names
	Title string  // plot title
	Eps   float64 // ε-front tolerance (0 = strict front)
}

// frontData extracts points, directions and front membership for a spec.
func frontData(rep *core.Report, spec ScatterSpec) ([]pareto.Point, []pareto.Direction, map[int]bool, error) {
	pts, dirs, err := rep.Points(spec.X, spec.Y)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(pts) == 0 {
		return nil, nil, nil, fmt.Errorf("report: no completed trials to plot")
	}
	var idx []int
	if spec.Eps > 0 {
		idx = pareto.EpsilonFront(pts, dirs, spec.Eps)
	} else {
		idx = pareto.Front(pts, dirs)
	}
	onFront := map[int]bool{}
	for _, i := range idx {
		onFront[pts[i].ID] = true
	}
	return pts, dirs, onFront, nil
}

// ASCIIScatter renders the trade-off as a text plot. Front members are
// drawn as their trial id (mod 10) in brackets; dominated points as dots.
func ASCIIScatter(w io.Writer, rep *core.Report, spec ScatterSpec) error {
	pts, _, onFront, err := frontData(rep, spec)
	if err != nil {
		return err
	}
	const width, height = 72, 24
	minX, maxX := pts[0].Values[0], pts[0].Values[0]
	minY, maxY := pts[0].Values[1], pts[0].Values[1]
	for _, p := range pts {
		minX = min(minX, p.Values[0])
		maxX = max(maxX, p.Values[0])
		minY = min(minY, p.Values[1])
		maxY = max(maxY, p.Values[1])
	}
	// An empty range (max >= min by construction) gets unit width.
	if maxX <= minX {
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		cx := int(float64(width-1) * (p.Values[0] - minX) / (maxX - minX))
		cy := height - 1 - int(float64(height-1)*(p.Values[1]-minY)/(maxY-minY))
		ch := '·'
		if onFront[p.ID] {
			ch = rune('0' + p.ID%10)
		}
		grid[cy][cx] = ch
	}
	if spec.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", spec.Title); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "y: %s  [%.3g .. %.3g]\n", spec.Y, minY, maxY)
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "  |%s\n", string(row)); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	_, err = fmt.Fprintf(w, "x: %s  [%.3g .. %.3g]   (digits = Pareto front, · = dominated)\n",
		spec.X, minX, maxX)
	return err
}

// SVGScatter renders the trade-off as a standalone SVG: dominated points
// gray, front members highlighted and connected by a front polyline, each
// labeled with its trial id.
func SVGScatter(w io.Writer, rep *core.Report, spec ScatterSpec) error {
	pts, _, onFront, err := frontData(rep, spec)
	if err != nil {
		return err
	}
	const W, H, margin = 640, 440, 56
	minX, maxX := pts[0].Values[0], pts[0].Values[0]
	minY, maxY := pts[0].Values[1], pts[0].Values[1]
	for _, p := range pts {
		minX = min(minX, p.Values[0])
		maxX = max(maxX, p.Values[0])
		minY = min(minY, p.Values[1])
		maxY = max(maxY, p.Values[1])
	}
	padX := (maxX - minX) * 0.06
	padY := (maxY - minY) * 0.06
	if padX <= 0 { // degenerate span (pads are non-negative by construction)
		padX = 1
	}
	if padY <= 0 {
		padY = 1
	}
	minX, maxX = minX-padX, maxX+padX
	minY, maxY = minY-padY, maxY+padY
	sx := func(v float64) float64 { return margin + (v-minX)/(maxX-minX)*(W-2*margin) }
	sy := func(v float64) float64 { return H - margin - (v-minY)/(maxY-minY)*(H-2*margin) }

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", W, H, W, H)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", W, H)
	fmt.Fprintf(w, `<text x="%d" y="24" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n", margin, xmlEscape(spec.Title))
	// Axes.
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", margin, H-margin, W-margin, H-margin)
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", margin, margin, margin, H-margin)
	fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="12">%s</text>`+"\n", W/2-30, H-16, xmlEscape(spec.X))
	fmt.Fprintf(w, `<text x="14" y="%d" font-family="sans-serif" font-size="12" transform="rotate(-90 14 %d)">%s</text>`+"\n", H/2, H/2, xmlEscape(spec.Y))
	fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">%.3g</text>`+"\n", margin, H-margin+14, minX)
	fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%.3g</text>`+"\n", W-margin, H-margin+14, maxX)
	fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%.3g</text>`+"\n", margin-4, H-margin, minY)
	fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%.3g</text>`+"\n", margin-4, margin+4, maxY)

	// Front polyline, sorted by x.
	var front []pareto.Point
	for _, p := range pts {
		if onFront[p.ID] {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].Values[0] < front[j].Values[0] })
	if len(front) > 1 {
		var b strings.Builder
		for i, p := range front {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.1f,%.1f", sx(p.Values[0]), sy(p.Values[1]))
		}
		fmt.Fprintf(w, `<polyline points="%s" fill="none" stroke="#c0392b" stroke-width="1.5" stroke-dasharray="5,3"/>`+"\n", b.String())
	}
	// Points.
	for _, p := range pts {
		x, y := sx(p.Values[0]), sy(p.Values[1])
		if onFront[p.ID] {
			fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="5" fill="#c0392b"/>`+"\n", x, y)
			fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" fill="#c0392b">%d</text>`+"\n", x+7, y-6, p.ID)
		} else {
			fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="3.5" fill="#95a5a6"/>`+"\n", x, y)
			fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="9" fill="#7f8c8d">%d</text>`+"\n", x+6, y-5, p.ID)
		}
	}
	_, err = fmt.Fprintln(w, `</svg>`)
	return err
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
