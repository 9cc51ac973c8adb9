// Package dataset generates the synthetic stand-ins for the paper's four
// evaluation datasets (SBR, SBR-1d, Flights, Chlorine) and provides
// missing-block injection and CSV I/O. Each generator is seeded and
// deterministic; each generator's doc comment argues how its substitution
// preserves the structural properties the paper's arguments rest on
// (seasonality, phase shifts, non-linear correlation, sampling rate, scale),
// and PAPER-MAP.md's Sec. 7.1 datasets row lists them.
package dataset
