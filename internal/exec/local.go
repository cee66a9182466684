package exec

import (
	"fmt"
	"sort"

	"piql/internal/core"
	"piql/internal/parser"
	"piql/internal/value"
)

// runSelection filters in the application tier.
func (e *executor) runSelection(n *core.LocalSelection) ([]value.Row, error) {
	rows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	return e.filterResidual(rows, n.Preds)
}

// runSort orders the bounded input.
func (e *executor) runSort(n *core.LocalSort) ([]value.Row, error) {
	rows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return lessBySortKeys(rows[a], rows[b], n.Keys)
	})
	return rows, nil
}

// runStop truncates after K rows. A SortedIndexJoin directly below
// stops its merge after K rows: nothing between the two can drop a row,
// so the rows it never builds are exactly the ones the Stop would cut.
func (e *executor) runStop(n *core.LocalStop) ([]value.Row, error) {
	var rows []value.Row
	var err error
	if j, ok := n.ChildPlan.(*core.SortedIndexJoin); ok {
		rows, err = e.runSortedJoin(j, n.K)
	} else {
		rows, err = e.run(n.ChildPlan)
	}
	if err != nil {
		return nil, err
	}
	if len(rows) > n.K {
		rows = rows[:n.K]
	}
	return rows, nil
}

// runProject maps combined rows to output rows.
func (e *executor) runProject(n *core.LocalProject) ([]value.Row, error) {
	rows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	out := make([]value.Row, len(rows))
	for i, row := range rows {
		proj := make(value.Row, len(n.Cols))
		for j, c := range n.Cols {
			proj[j] = row[c]
		}
		out[i] = proj
	}
	return out, nil
}

// aggState accumulates one group.
type aggState struct {
	groupVals value.Row
	count     int64
	sums      []float64
	intSums   []int64
	isFloat   []bool
	mins      value.Row
	maxs      value.Row
	counts    []int64 // per-agg non-null counts (for AVG)
	first     value.Row
}

// runAgg computes grouped aggregates over the bounded input in the
// client tier, as Section 7.1 prescribes.
func (e *executor) runAgg(n *core.LocalAgg) ([]value.Row, error) {
	rows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	groups := make(map[string]*aggState)
	var order []string
	for _, row := range rows {
		gv := make(value.Row, len(n.GroupBy))
		for i, c := range n.GroupBy {
			gv[i] = row[c]
		}
		key := string(value.EncodeRow(gv))
		st, ok := groups[key]
		if !ok {
			st = &aggState{
				groupVals: gv,
				sums:      make([]float64, len(n.Aggs)),
				intSums:   make([]int64, len(n.Aggs)),
				isFloat:   make([]bool, len(n.Aggs)),
				mins:      make(value.Row, len(n.Aggs)),
				maxs:      make(value.Row, len(n.Aggs)),
				counts:    make([]int64, len(n.Aggs)),
				first:     row,
			}
			groups[key] = st
			order = append(order, key)
		}
		st.count++
		for i, a := range n.Aggs {
			if a.Col < 0 || a.Kind == parser.AggNone || a.Kind == parser.AggCount {
				continue
			}
			v := row[a.Col]
			if v.IsNull() {
				continue
			}
			st.counts[i]++
			switch v.T {
			case value.TypeInt:
				st.intSums[i] += v.I
				st.sums[i] += float64(v.I)
			case value.TypeFloat:
				st.isFloat[i] = true
				st.sums[i] += v.F
			default:
				if a.Kind == parser.AggSum || a.Kind == parser.AggAvg {
					return nil, fmt.Errorf("exec: %s over non-numeric column %s", a.Kind, a.Name)
				}
			}
			if st.counts[i] == 1 || value.Compare(v, st.mins[i]) < 0 {
				st.mins[i] = v
			}
			if st.counts[i] == 1 || value.Compare(v, st.maxs[i]) > 0 {
				st.maxs[i] = v
			}
		}
	}
	out := make([]value.Row, 0, len(groups))
	for _, key := range order {
		st := groups[key]
		row := make(value.Row, len(n.Aggs))
		for i, a := range n.Aggs {
			switch a.Kind {
			case parser.AggNone:
				row[i] = st.first[a.Col]
			case parser.AggCount:
				if a.Col < 0 {
					row[i] = value.Int(st.count)
				} else {
					row[i] = value.Int(st.counts[i])
				}
			case parser.AggSum:
				if st.isFloat[i] {
					row[i] = value.Float(st.sums[i])
				} else {
					row[i] = value.Int(st.intSums[i])
				}
			case parser.AggAvg:
				if st.counts[i] == 0 {
					row[i] = value.Null()
				} else {
					row[i] = value.Float(st.sums[i] / float64(st.counts[i]))
				}
			case parser.AggMin:
				if st.counts[i] == 0 {
					row[i] = value.Null()
				} else {
					row[i] = st.mins[i]
				}
			case parser.AggMax:
				if st.counts[i] == 0 {
					row[i] = value.Null()
				} else {
					row[i] = st.maxs[i]
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}
