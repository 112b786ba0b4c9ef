package explore

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"repro/seda"
)

// Wire form of a Result. Field order is fixed by the struct, float
// values marshal shortest-form, and Points keep canonical enumeration
// order — so a Result's JSON is a deterministic function of its inputs
// (which the serving layer's ETag relies on).

type pointJSON struct {
	Name            string  `json:"name"`
	Rows            int     `json:"rows"`
	Cols            int     `json:"cols"`
	SRAMBytes       int     `json:"sram_bytes"`
	FreqHz          float64 `json:"freq_hz"`
	BandwidthB      float64 `json:"bandwidth_b"`
	Channels        int     `json:"channels"`
	BanksPerChan    int     `json:"banks_per_chan"`
	RowBytes        int     `json:"row_bytes"`
	BurstBytes      int     `json:"burst_bytes"`
	WindowSize      int     `json:"window_size"`
	Cost            float64 `json:"cost"`
	SurrogateCycles float64 `json:"surrogate_cycles"`
	Confirmed       bool    `json:"confirmed"`
	ExecCycles      uint64  `json:"exec_cycles,omitempty"`
	Frontier        bool    `json:"frontier"`
}

type resultJSON struct {
	PipelineVersion  string `json:"pipeline_version"`
	SurrogateVersion string `json:"surrogate_version"`
	Spec             string `json:"spec"`
	Base             string `json:"base"`
	Scheme           string `json:"scheme"`

	Workloads []string `json:"workloads"`

	Margin      float64 `json:"margin"`
	Calibration struct {
		Alpha     float64    `json:"alpha"`
		Beta      float64    `json:"beta"`
		MaxRelErr float64    `json:"max_rel_err"`
		Points    []CalPoint `json:"points"`
	} `json:"calibration"`

	PointsTotal     int `json:"points_total"`
	PointsInvalid   int `json:"points_invalid"`
	PointsConfirmed int `json:"points_confirmed"`

	Frontier []pointJSON `json:"frontier"`
	Points   []pointJSON `json:"points"`
}

func toPointJSON(p *Point) pointJSON {
	d := p.Config.DRAMConfig()
	return pointJSON{
		Name:            p.Config.Name,
		Rows:            p.Config.ArrayRows,
		Cols:            p.Config.ArrayCols,
		SRAMBytes:       p.Config.SRAMBytes,
		FreqHz:          p.Config.FreqHz,
		BandwidthB:      p.Config.BandwidthB,
		Channels:        d.Channels,
		BanksPerChan:    d.BanksPerChan,
		RowBytes:        d.RowBytes,
		BurstBytes:      d.BurstBytes,
		WindowSize:      d.WindowSize,
		Cost:            p.Cost,
		SurrogateCycles: p.SurrogateCycles,
		Confirmed:       p.Confirmed,
		ExecCycles:      p.ExecCycles,
		Frontier:        p.Frontier,
	}
}

func (r *Result) wire() resultJSON {
	doc := resultJSON{
		PipelineVersion:  seda.PipelineVersion,
		SurrogateVersion: SurrogateVersion,
		Spec:             r.Spec,
		Base:             r.Base,
		Scheme:           r.Scheme.Name(),
		Workloads:        r.Workloads,
		Margin:           r.Margin,
		PointsTotal:      len(r.Points) + r.Invalid,
		PointsInvalid:    r.Invalid,
		PointsConfirmed:  r.Confirmed(),
	}
	doc.Calibration.Alpha = r.Calibration.Alpha
	doc.Calibration.Beta = r.Calibration.Beta
	doc.Calibration.MaxRelErr = r.Calibration.MaxRelErr
	doc.Calibration.Points = r.Calibration.Points
	for _, i := range r.Frontier {
		doc.Frontier = append(doc.Frontier, toPointJSON(&r.Points[i]))
	}
	for i := range r.Points {
		doc.Points = append(doc.Points, toPointJSON(&r.Points[i]))
	}
	return doc
}

// WriteJSON writes the result as indented JSON with a fixed field
// order and a trailing newline.
func (r *Result) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.wire(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV writes one row per explored point (canonical order) with
// the same fields as the JSON points array.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"name", "rows", "cols", "sram_bytes", "freq_hz", "bandwidth_b",
		"channels", "banks_per_chan", "row_bytes", "burst_bytes", "window_size",
		"cost", "surrogate_cycles", "confirmed", "exec_cycles", "frontier",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range r.Points {
		p := toPointJSON(&r.Points[i])
		if err := cw.Write([]string{
			p.Name,
			strconv.Itoa(p.Rows), strconv.Itoa(p.Cols), strconv.Itoa(p.SRAMBytes),
			f(p.FreqHz), f(p.BandwidthB),
			strconv.Itoa(p.Channels), strconv.Itoa(p.BanksPerChan),
			strconv.Itoa(p.RowBytes), strconv.Itoa(p.BurstBytes), strconv.Itoa(p.WindowSize),
			f(p.Cost), f(p.SurrogateCycles),
			strconv.FormatBool(p.Confirmed),
			strconv.FormatUint(p.ExecCycles, 10),
			strconv.FormatBool(p.Frontier),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
