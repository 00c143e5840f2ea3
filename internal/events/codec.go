package events

import (
	"fmt"
	"strconv"
	"strings"

	"sphenergy/internal/jsontext"
)

// The ledger's wire form is one JSON object per event, written and read
// here by hand on internal/jsontext: Event is sixteen scalar fields, so
// the codec is a fixed sequence of appends one way and a key switch the
// other, with no reflection and no per-event allocation beyond the strings
// a file introduces for the first time. Both directions are held to
// encoding/json — the encoder byte for byte, the decoder value for value —
// by TestLedgerCodecMatchesEncodingJSON and FuzzReadJSONL, so the struct
// tags on Event remain the format's definition.

// eventEncoder appends events to buf as JSON lines.
type eventEncoder struct {
	buf []byte
	err error // first value JSON cannot hold
}

// event appends ev as encoding/json marshals it — fields in declaration
// order, omitempty ones dropped at their zero value, strings HTML-safe —
// and a newline.
func (e *eventEncoder) event(ev *Event) {
	e.buf = strconv.AppendUint(append(e.buf, `{"seq":`...), ev.Seq, 10)
	e.float(`,"t_s":`, ev.TimeS)
	e.buf = strconv.AppendInt(append(e.buf, `,"step":`...), int64(ev.Step), 10)
	e.buf = strconv.AppendInt(append(e.buf, `,"rank":`...), int64(ev.Rank), 10)
	e.buf = jsontext.AppendString(append(e.buf, `,"type":`...), string(ev.Type))
	if ev.Subject != "" {
		e.buf = jsontext.AppendString(append(e.buf, `,"subject":`...), ev.Subject)
	}
	if ev.Detail != "" {
		e.buf = jsontext.AppendString(append(e.buf, `,"detail":`...), ev.Detail)
	}
	if ev.RequestedMHz != 0 {
		e.buf = strconv.AppendInt(append(e.buf, `,"requested_mhz":`...), int64(ev.RequestedMHz), 10)
	}
	if ev.AppliedMHz != 0 {
		e.buf = strconv.AppendInt(append(e.buf, `,"applied_mhz":`...), int64(ev.AppliedMHz), 10)
	}
	if ev.PredTimeS != 0 {
		e.float(`,"pred_time_s":`, ev.PredTimeS)
	}
	if ev.PredEnergyJ != 0 {
		e.float(`,"pred_energy_j":`, ev.PredEnergyJ)
	}
	if ev.PredPowerW != 0 {
		e.float(`,"pred_power_w":`, ev.PredPowerW)
	}
	if ev.PredEDPJs != 0 {
		e.float(`,"pred_edp_js":`, ev.PredEDPJs)
	}
	if ev.Value != 0 {
		e.float(`,"value":`, ev.Value)
	}
	if ev.Cached {
		e.buf = append(e.buf, `,"cached":true`...)
	}
	if ev.Err != "" {
		e.buf = jsontext.AppendString(append(e.buf, `,"err":`...), ev.Err)
	}
	e.buf = append(e.buf, '}', '\n')
}

// float appends one float field. NaN and the infinities have no JSON form
// and fail the encoding, as they failed encoding/json's.
func (e *eventEncoder) float(key string, f float64) {
	var ok bool
	if e.buf, ok = jsontext.AppendFloat(append(e.buf, key...), f); !ok && e.err == nil {
		e.err = fmt.Errorf("events: encode: unsupported value %s for %s",
			strconv.FormatFloat(f, 'g', -1, 64), strings.Trim(key, `,":`))
	}
}

// eventKeys are Event's JSON keys.
var eventKeys = [...]string{"seq", "t_s", "step", "rank", "type", "subject", "detail",
	"requested_mhz", "applied_mhz", "pred_time_s", "pred_energy_j", "pred_power_w",
	"pred_edp_js", "value", "cached", "err"}

// eventDecoder reads events back from JSON lines. Strings are interned:
// a ledger repeats a few dozen types, subjects and details thousands of
// times.
type eventDecoder struct {
	names map[string]string
	visit func(key, val []byte) // d.member, bound once
	ev    *Event
	bad   bool // a known key of the line held a value of the wrong type
}

func newEventDecoder() *eventDecoder {
	d := &eventDecoder{names: make(map[string]string, 64)}
	d.visit = d.member
	return d
}

// decode reads one line into ev as json.Unmarshal would and reports
// whether it could: the line is one JSON value and nothing else, an object
// (or null, which leaves ev as it is) whose known keys hold values of their
// field's type. Keys it does not know are skipped, null leaves a field as
// it is, and the last of a repeated key wins.
func (d *eventDecoder) decode(line []byte, ev *Event) bool {
	s := jsontext.Scanner{Data: line}
	switch s.Peek() {
	case 'n':
		if s.Word("null") != nil {
			return false
		}
	case '{':
		d.ev, d.bad = ev, false
		if s.Members(d.visit) != nil || d.bad {
			return false
		}
	default:
		return false
	}
	s.Space()
	return s.Pos == len(line)
}

// member stores one member of the line's object in the event. A key names
// a field in exact case or, failing that, under Unicode case folding —
// encoding/json's rule for struct fields.
func (d *eventDecoder) member(key, val []byte) {
	if !jsontext.Present(val) || d.field(string(key), val) {
		return
	}
	for _, k := range eventKeys {
		if strings.EqualFold(string(key), k) {
			d.field(k, val)
			return
		}
	}
}

// field stores val in the field key names in exact case; known is false
// for a key that names none.
func (d *eventDecoder) field(key string, val []byte) (known bool) {
	ev, ok := d.ev, true
	switch key {
	case "seq":
		if n, isInt := jsontext.Int(val); isInt && val[0] != '-' {
			ev.Seq = uint64(n)
		} else {
			n, err := strconv.ParseUint(string(val), 10, 64)
			ev.Seq, ok = n, err == nil
		}
	case "t_s":
		ev.TimeS, ok = jsontext.Float(val)
	case "step":
		ev.Step, ok = jsontext.Int(val)
	case "rank":
		ev.Rank, ok = jsontext.Int(val)
	case "type":
		var s string
		s, ok = d.text(val)
		ev.Type = Type(s)
	case "subject":
		ev.Subject, ok = d.text(val)
	case "detail":
		ev.Detail, ok = d.text(val)
	case "requested_mhz":
		ev.RequestedMHz, ok = jsontext.Int(val)
	case "applied_mhz":
		ev.AppliedMHz, ok = jsontext.Int(val)
	case "pred_time_s":
		ev.PredTimeS, ok = jsontext.Float(val)
	case "pred_energy_j":
		ev.PredEnergyJ, ok = jsontext.Float(val)
	case "pred_power_w":
		ev.PredPowerW, ok = jsontext.Float(val)
	case "pred_edp_js":
		ev.PredEDPJs, ok = jsontext.Float(val)
	case "value":
		ev.Value, ok = jsontext.Float(val)
	case "cached":
		ev.Cached, ok = val[0] == 't', val[0] == 't' || val[0] == 'f'
	case "err":
		ev.Err, ok = d.text(val)
	default:
		return false
	}
	if !ok {
		d.bad = true
	}
	return true
}

// text interprets a value as a string and returns the one copy of it this
// read holds.
func (d *eventDecoder) text(val []byte) (string, bool) {
	if val[0] != '"' {
		return "", false
	}
	txt, _ := jsontext.Text(val)
	if s, ok := d.names[string(txt)]; ok {
		return s, true
	}
	s := string(txt)
	d.names[s] = s
	return s, true
}
