"""Mutation audit: every listed check must be able to fail.

Each entry of MUTANTS is a named source mutation: a file, the exact text it
replaces, the replacement and the tests that must kill it.  For each entry
the script copies src/, tests/, perfbench/ (a test reads its stored
references) and pyproject.toml into a temporary directory, applies the one
mutation there (the working tree is never touched) and runs only the
entry's tests.  A mutant is killed when pytest reports a failure or an
error; it survives when every test passes.  First the union of the
entries' tests runs once on an unmutated copy, and must pass, so that no
kill comes from a test that fails anyway.

    python3 tools/mutants.py

The exit code is 1 if the unmutated tests fail, if any mutant survives,
if an entry's old text is not found exactly once (so a stale entry cannot
pass), or if pytest cannot run an entry's tests (a test id that no longer
exists); otherwise 0.  It is not part of tier-1: each entry starts its own
pytest process.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

CONJ = "src/gevrey_evolve/conjugate.py"
EVOLVE = "src/gevrey_evolve/evolve.py"
HARNESS = "src/gevrey_evolve/harness.py"
POS = "src/gevrey_evolve/positivity.py"
QUANTIZE = "src/gevrey_evolve/quantize.py"
STENCIL = "src/gevrey_evolve/_stencil.py"
SYMBOLS = "src/gevrey_evolve/symbols.py"
WEIGHTS = "src/gevrey_evolve/weights.py"
T_CONJ = "tests/test_conjugate.py::"
T_EVOLVE = "tests/test_evolve.py::"
T_HARNESS = "tests/test_harness.py::"
T_KERNELS = "tests/test_kernels.py::"
T_POS = "tests/test_positivity.py::"
T_QUANTIZE = "tests/test_quantize.py::"
T_SYMBOLS = "tests/test_symbols.py::"
T_WEIGHTS = "tests/test_weights.py::"
STACKED_CASE = T_CONJ + "test_stacked_stage_matches_quantized_generator_table"
MARGINS_CASE = T_POS + "test_margins_read_parts_without_at"
ORACLE_CASE = T_CONJ + "test_conjugator_variant_against_dense_oracle"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str       # relative to the repository root
    old: str        # must occur exactly once in the file
    new: str
    tests: tuple    # pytest node ids, at least one of which must fail


MUTANTS = [
    Mutant("blocks-order1-without-damp1", CONJ,
           '"order1": ("ia1", "damp1", "id1", "a2cross")',
           '"order1": ("ia1", "id1", "a2cross")',
           (T_CONJ + "test_order1_block_matches_its_report_form",)),
    Mutant("blocks-order1-without-id1", CONJ,
           '"order1": ("ia1", "damp1", "id1", "a2cross")',
           '"order1": ("ia1", "damp1", "a2cross")',
           (T_CONJ + "test_order1_block_holds_d1",)),
    Mutant("blocks-theta-without-b1k", CONJ,
           '"theta": ("kprime", "b1k", "ia1_k")',
           '"theta": ("kprime", "ia1_k")',
           (T_CONJ + "test_theta_block_matches_its_report_form",)),
    Mutant("blocks-order2-without-damp2", CONJ,
           '"order2": ("ia2", "damp2", "b2k", "ia2_k")',
           '"order2": ("ia2", "b2k", "ia2_k")',
           (T_CONJ + "test_order2_block_matches_its_report_form",)),
    Mutant("margins-order1-without-e", CONJ,
           '"order1": ("ia1", "m1_main", "a2cross", "c", "e")',
           '"order1": ("ia1", "m1_main", "a2cross", "c")',
           (MARGINS_CASE + "[damped-64]",)),
    Mutant("margins-theta-without-m2-tail", CONJ,
           '"theta": ("kprime", "b1k", "ia1_k", "m2_tail", "m1_tail")',
           '"theta": ("kprime", "b1k", "ia1_k", "m1_tail")',
           (MARGINS_CASE + "[damped-64-h2]",)),
    Mutant("at-forms-the-margins-too", CONJ,
           "for names in BLOCKS.values() for name in names}",
           "for names in (*BLOCKS.values(), *MARGINS.values())"
           " for name in names}",
           (T_CONJ + "test_at_forms_the_generator_parts_only",)),
    Mutant("store-keeps-only-the-asked-table", CONJ,
           "for n, U0 in self._spatial_recipe(e, name).items():",
           "for n, U0 in [(name, self._spatial_recipe(e, name)[name])]:",
           (T_POS + "test_each_recipe_runs_once_per_coefficient_time[damped-64]",)),
    Mutant("k-stage-part-left-out-of-Gj", CONJ,
           "polys = (self._poly(entry, name) for name in POLY_PARTS)",
           "polys = (self._poly(entry, name) for name in POLY_PARTS\n"
           "                         if name != \"b2k\")",
           (STACKED_CASE + "[complex-damped-10.0-64]",)),
    Mutant("part-drops-its-k0-table", CONJ,
           "return poly[0] + sum(terms, 0.0) if terms else poly[0]",
           "return SymbolTable.fresh(self.grid, sum(terms)) if terms else poly[0]",
           (STACKED_CASE + "[complex-damped-10.0-64]",)),
    Mutant("truncation-keeps-a-growing-term", CONJ,
           "        if prev is not None and now > prev:\n            break\n",
           "        if prev is not None and now > prev:\n"
           "            yield term\n            break\n",
           (T_CONJ + "test_truncation_stops_at_the_first_growing_term",)),
    Mutant("stops-decided-per-coefficient-time", CONJ,
           "    if key in stops:\n        yield from islice(terms, stops[key])\n",
           "    if False:\n        yield from islice(terms, stops[key])\n",
           (T_CONJ + "test_each_series_keeps_its_t0_stop",)),
    Mutant("e-stop-ignored", CONJ,
           'p[j].imag for p in polys if j in p)), self.stops, "e")',
           'p[j].imag for p in polys if j in p)), {"e": 3}, "e")',
           (MARGINS_CASE + "[damped-64]",)),
    Mutant("multiplier-row-without-kprime", CONJ,
           "POLY_PARTS = tuple(n for names in BLOCKS.values() for n in names)",
           "POLY_PARTS = tuple(n for names in BLOCKS.values() for n in names\n"
           "                   if n != \"kprime\")",
           (STACKED_CASE + "[kdv-baseline-10.0-64]",
            T_EVOLVE + "test_multiplier_step_matches_dense_step[64-10.0]")),
    Mutant("stacked-without-kprime", CONJ,
           "polys = (self._poly(entry, name) for name in POLY_PARTS)",
           "polys = (self._poly(entry, name) for name in POLY_PARTS\n"
           "                         if name != \"kprime\")",
           (STACKED_CASE + "[complex-damped-10.0-64]",
            T_EVOLVE + "test_stacked_step_matches_dense_step")),
    Mutant("kprime-part-drops-C1", CONJ,
           "return {0: X * self.params.C2, 1: X * self.params.C1}",
           "return {0: X * self.params.C2, 1: X * 0.0}",
           (T_CONJ + "test_kprime_part_is_the_time_stage_term",)),
    Mutant("generator-kept-across-params", CONJ,
           "        for entry in self._cache.values():\n"
           "            entry.pop(\"generator\", None)\n",
           "",
           (T_CONJ + "test_stage_follows_new_time_weight_constants",)),
    Mutant("variant-decided-per-coefficient-time", CONJ,
           "            if self._rows is None:\n"
           "                self._rows = rows\n",
           "            self._rows = rows\n",
           (T_EVOLVE + "test_stack_solve_forms_an_x_independent_time_as_a_stack",
            T_EVOLVE + "test_rows_solve_refuses_an_x_dependent_time")),
    Mutant("generator-rows-decided-by-G0-alone", CONJ,
           "rows = all(len(T) == 1 for T in tables)",
           "rows = len(tables[0]) == 1",
           (T_CONJ + "test_generator_holds_rows_only_when_every_table_is_one",)),
    Mutant("release-keeps-no-generator-sup", CONJ,
           "        self._sup0 = self.generator_sup()\n",
           "",
           (T_HARNESS + "test_default_step_after_a_run_reads_the_kept_sup",)),
    Mutant("stack-rebuilt-at-every-stage-time", CONJ,
           'if "generator" not in entry:',
           "if True:",
           (T_EVOLVE + "test_solve_builds_no_stage_matrix",)),
    Mutant("pair-gemm-drops-top-power", QUANTIZE,
           "np.matmul(weights, A[:, c:c + STAGE_PANEL],",
           "np.matmul(weights * (np.arange(len(stack))\n"
           "                             < len(stack) - (len(weights) > 1)),\n"
           "                  A[:, c:c + STAGE_PANEL],",
           (T_EVOLVE + "test_solve_forms_one_matrix_per_stage_time",
            T_EVOLVE + "test_solve_stages_equal_one_unpanelled_gemm")),
    Mutant("stage-panels-skip-the-tail", QUANTIZE,
           "for c in range(0, A.shape[1], STAGE_PANEL):",
           "for c in range(0, A.shape[1] - STAGE_PANEL + 1, STAGE_PANEL):",
           (T_QUANTIZE + "test_stage_panels_equal_one_gemm[96-given-out]",)),
    Mutant("stage-panels-shifted", QUANTIZE,
           "out=C[:, c:c + STAGE_PANEL])",
           "out=C[:, max(c - 1, 0):max(c - 1, 0) + STAGE_PANEL])",
           (T_QUANTIZE + "test_stage_panels_equal_one_gemm[128-given-out]",
            T_EVOLVE + "test_solve_stages_equal_one_unpanelled_gemm")),
    Mutant("batch-start-read-from-a-stale-slot", EVOLVE,
           "S = assembler.stages(taus[2 * i:2 * i + 2 * b + 1],\n"
           "                                         slots[:2 * b + 1])",
           "S = slots[:2 * b + 1]\n"
           "                    assembler.stages(taus[2 * i + 1:2 * i + 2 * b + 1],\n"
           "                                     slots[1:2 * b + 1])",
           (T_EVOLVE + "test_solve_forms_one_matrix_per_stage_time",
            T_EVOLVE + "test_batch_start_is_formed_as_the_last_end")),
    Mutant("slots-allocated-for-multiplier-stages", EVOLVE,
           "    if not affine:\n"
           "        batch = batch_steps(",
           "    slots = np.empty((3, grid.N, grid.N), dtype=complex)\n"
           "    if not affine:\n"
           "        batch = batch_steps(",
           (T_EVOLVE + "test_multiplier_solve_forms_no_stage_matrix",)),
    Mutant("stage-matrices-formed-per-rhs", EVOLVE,
           "S = assembler.stages(taus[2 * i:2 * i + 2 * b + 1],\n"
           "                                         slots[:2 * b + 1])",
           "S = [assembler.stages([tau])[0]\n"
           "                         for tau in taus[2 * i:2 * i + 2 * b + 1]]",
           (T_EVOLVE + "test_solve_forms_one_matrix_per_stage_time",)),
    Mutant("batch-stages-shifted-by-one-time", EVOLVE,
           "S = assembler.stages(taus[2 * i:2 * i + 2 * b + 1],",
           "S = assembler.stages(np.append(taus[2 * i + 1:2 * i + 2 * b + 1],"
           " taus[-1]),",
           (T_EVOLVE + "test_solve_forms_one_matrix_per_stage_time",)),
    Mutant("batch-ignores-block-end", EVOLVE,
           "b = min(batch, stop - start - i)",
           "b = batch",
           (T_EVOLVE + "test_batched_stages_equal_one_step_batches",)),
    Mutant("affine-block-drops-forcing", EVOLVE,
           "            row += Q[j]\n",
           "            pass\n",
           (T_EVOLVE + "test_affine_blocks_equal_per_step_stepping",)),
    Mutant("blowup-checked-on-last-row-only", EVOLVE,
           "            bad = ~np.all(np.isfinite(states), axis=1) | (norms > cap)\n",
           "            bad = ~np.all(np.isfinite(states), axis=1) | (norms > cap)\n"
           "            bad[:-1] = False\n",
           (T_EVOLVE + "test_multiplier_blowup_names_the_first_step",)),
    Mutant("garding-row-floor-over-full-lattice", POS,
           "        return float(np.min(sym.values[0, band].real))",
           "        return float(np.min(sym.values[0].real))",
           (T_POS + "test_garding_floor_of_a_row_equals_the_dense_floor"
            "[-1.0-64]",)),
    Mutant("part-memo-ignores-coefficient-time", CONJ,
           "return _memo(self._cache, round(t0, 12), lambda: {",
           "return _memo(self._cache, 0.0, lambda: {",
           (T_CONJ + "test_time_dependent_parts_kept_per_coefficient_time",)),
    Mutant("coefficient-tables-keyed-without-time", CONJ,
           "store = _memo(self._cache, float(t), dict)",
           "store = _memo(self._cache, 0.0, dict)",
           (T_POS + "test_trials_share_the_coefficient_tables"
            "[time-modulated]",)),
    Mutant("block-sum-keyed-without-coefficient-time", POS,
           "key = (assembler.problem.coefficient_times(t)[0], tuple(names))",
           "key = tuple(names)",
           (T_POS + "test_block_sums_match_real_sum[time-modulated-64]",)),
    Mutant("generator-without-ia1-k", CONJ,
           "POLY_PARTS = tuple(n for names in BLOCKS.values() for n in names)",
           "POLY_PARTS = tuple(n for names in BLOCKS.values() for n in names\n"
           "                   if n != \"ia1_k\")",
           (T_HARNESS + "test_run_outputs_match_the_benchmark_reference",)),
    Mutant("horner-drops-the-top-power", POS,
           "for R_j in R[::-1]:",
           "for R_j in R[-2::-1]:",
           (T_POS + "test_block_sums_match_real_sum[damped-64]",)),
    Mutant("neumann-stops-once-below-one", CONJ,
           "if size * size < series_tol:",
           "if size < 1.0:",
           (T_CONJ + "test_neumann_series_stops_by_the_power_it_leaves",)),
    Mutant("conjugator-nyquist-slot-not-pinned", CONJ,
           "E[nyq, nyq] = E_star[nyq, nyq] = 1.0",
           "E_star[nyq, nyq] = 1.0",
           (ORACLE_CASE + "[kdv-weighted-64]", ORACLE_CASE + "[damped-64]")),
    Mutant("pull-back-through-E", CONJ,
           "return _apply(self.E_inv, self.time_stage(t, -1)",
           "return _apply(self.E, self.time_stage(t, -1)",
           (ORACLE_CASE + "[damped-64]",)),
    Mutant("inverse-time-stage-sign-flipped", CONJ,
           "self.time_stage(t, -1) * v_hat)",
           "self.time_stage(t) * v_hat)",
           (ORACLE_CASE + "[damped-64]",)),
    Mutant("time-stage-sign-flipped", CONJ,
           "expo = (sign * k_of_t(t, self.params))",
           "expo = (-sign * k_of_t(t, self.params))",
           (ORACLE_CASE + "[damped-64]",)),
    Mutant("conjugator-always-multiplier", CONJ,
           'if mode != "dense" and len(phase.lam.values) == 1:',
           'if mode != "dense":',
           (ORACLE_CASE + "[damped-64]",)),
    Mutant("conjugator-always-dense", CONJ,
           'if mode != "dense" and len(phase.lam.values) == 1:',
           "if False:",
           (T_CONJ + "test_x_independent_phase_gives_multiplier_pair",)),
    Mutant("apply-full-skips-the-spatial-stage", CONJ,
           "return self.time_stage(t) * _apply(self.E, u_hat)",
           "return self.time_stage(t) * u_hat",
           (ORACLE_CASE + "[damped-64]",)),
    Mutant("row-inverse-is-the-row", CONJ,
           "E, E_inv = e, 1.0 / e",
           "E, E_inv = e, e",
           (T_CONJ + "test_x_independent_phase_gives_multiplier_pair",)),
    Mutant("multiplier-applies-without-its-row", CONJ,
           "        return A * w_hat\n",
           "        return w_hat\n",
           (T_CONJ + "test_x_independent_phase_gives_multiplier_pair",)),
    Mutant("horizon-not-checked-positive", HARNESS,
           '**dict.fromkeys(("grid.L", "problem.T", ',
           '**dict.fromkeys(("grid.L", ',
           (T_HARNESS + "test_solve_inputs_must_be_finite_and_positive"
            "[problem.T-0]",)),
    Mutant("margin-not-checked-positive", HARNESS,
           '"select.margin", "run.dt",',
           '"run.dt",',
           (T_HARNESS + "test_solve_inputs_must_be_finite_and_positive"
            "[select.margin--1]",)),
    Mutant("dt-not-checked-positive", HARNESS,
           '"select.margin", "run.dt",',
           '"select.margin",',
           (T_HARNESS + "test_solve_inputs_must_be_finite_and_positive"
            "[run.dt-0]",)),
    Mutant("numbers-not-finite-by-default", HARNESS,
           "            low, strict = _BOUNDS.get(key, _FINITE)\n",
           "            if key not in _BOUNDS:\n"
           "                continue\n"
           "            low, strict = _BOUNDS[key]\n",
           (T_HARNESS + "test_every_number_is_finite_and_clears_its_bound"
            "[gevrey.m-nan]",
            T_HARNESS + "test_solve_inputs_must_be_finite_and_positive"
            "[forcing.amplitude-inf]")),
    Mutant("seed-not-bounded", HARNESS,
           '    "seed": (0, False),\n',
           "",
           (T_HARNESS + "test_oracle_refuses_a_negative_seed",)),
    Mutant("thread-cap-catches-the-wrong-error", HARNESS,
           "        except ValueError:\n            raise ConfigurationError(\n"
           '                f"GEVREY_EVOLVE_THREADS',
           "        except KeyError:\n            raise ConfigurationError(\n"
           '                f"GEVREY_EVOLVE_THREADS',
           (T_HARNESS + "test_thread_cap_must_be_an_integer",)),
    Mutant("oracle-checks-a-smaller-box", HARNESS,
           'art = setup_pipeline(cfg.with_overrides(**{"grid.N": N}), out_dir)',
           'art = setup_pipeline(cfg.with_overrides(\n'
           '        **{"grid.N": N, "grid.L": min(v["grid.L"], 10.0)}), out_dir)',
           (T_HARNESS
            + "test_oracle_problem_is_rolled_off_inside_the_oracle_box",)),
    Mutant("oracle-coefficient-matrix-of-the-transposed-table", QUANTIZE,
           "out = np.multiply(grid.synthesis_matrix(), values, out=out)",
           "out = np.multiply(grid.synthesis_matrix(), np.transpose(values),\n"
           "                  out=out)",
           (T_HARNESS + "test_oracle_suite_passes",)),
    Mutant("mode-read-as-an-integer", HARNESS,
           '    "data.mode": 1.0,\n',
           '    "data.mode": 1,\n',
           (T_HARNESS + "test_mode_hint_pastes_back",)),
    Mutant("time-dependent-budgeted-like-time-independent", HARNESS,
           'if model_problem(v["problem.id"], sigma, s0=s0).time_dependent',
           "if False",
           (T_HARNESS + "test_time_dependent_working_set_is_budgeted",)),
    Mutant("setup-without-garding-floors", HARNESS,
           "positivity.garding_floors = garding_floors(bundle.assembler)",
           "positivity.garding_floors = {}",
           (T_HARNESS + "test_run_builds_each_setup_object_once",)),
    Mutant("empty-sweep-runs", HARNESS,
           "        if not str(value).strip():\n",
           "        if False:\n",
           (T_HARNESS + "test_empty_sweep_is_a_config_error[,]",
            T_HARNESS + "test_empty_sweep_entry_is_a_config_error[4,,8-entry 2 of 3]")),
    Mutant("artifact-write-error-uncaught", HARNESS,
           "    except OSError as exc:\n        # from_file",
           "    except () as exc:\n        # from_file",
           (T_HARNESS + "test_run_into_an_existing_file_names_the_write",)),
    Mutant("block-boundary-node-rebuilt", EVOLVE,
           "f_conj(taus[1:])",
           "f_conj(taus)",
           (T_EVOLVE + "test_forcing_conjugated_once_per_stage_time",
            T_EVOLVE + "test_steps_end_on_the_logged_times")),
    Mutant("radius-fit-mask-of-first-row", EVOLVE,
           "    mask = grid.band_mask(RADIUS_BAND) & (mag > RADIUS_FLOOR * top)\n",
           "    mask = grid.band_mask(RADIUS_BAND) & (mag > RADIUS_FLOOR * top)\n"
           "    mask = np.broadcast_to(mask.reshape(-1, grid.N)[0], mask.shape)\n",
           (T_EVOLVE + "test_norm_and_radius_fit_on_a_stack",)),
    Mutant("horizon-past-the-certificate-accepted", EVOLVE,
           "    if T > bundle.problem.T:\n",
           "    if False:\n",
           (T_EVOLVE + "test_solve_refuses_a_horizon_past_its_certificate",)),
    Mutant("solve-with-a-fixed-theta", EVOLVE,
           "    theta = params.theta\n",
           "    theta = 1.8\n",
           (T_EVOLVE + "test_solve_reads_theta_from_the_bundle",)),
    Mutant("calibration-leaves-its-last-constants-uninstalled", POS,
           "    k_of_t(p.T, params)\n    assembler.params = params\n"
           "    return params\n",
           "    k_of_t(p.T, params)\n    return params\n",
           (T_POS + "test_calibration_installs_its_last_round",)),
    Mutant("m1-measured-without-c", POS,
           'M1_PARTS = ("a2cross", "c")',
           'M1_PARTS = ("a2cross", "a2cross")',
           (T_POS + "test_selection_formula_m1[damped-64]",)),
    Mutant("m1-installed-after-calibration", POS,
           "                assembler.params = replace(params, M1=M1)\n"
           "            else:\n"
           '                trial["M1"] = params.M1\n'
           "            params = calibrate_time_weight(assembler)\n",
           "                pass\n"
           "            else:\n"
           '                trial["M1"] = params.M1\n'
           "            params = calibrate_time_weight(assembler)\n"
           "            if M1_pin is None:\n"
           "                assembler.params = params = replace(params, M1=M1)\n",
           (T_POS + "test_accepted_assembler_equals_a_fresh_one[damped-64]",)),
    Mutant("time-weight-precheck-skipped", POS,
           "        k_of_t(p.T, params.with_ode_constants(0.0, C2_new))\n",
           "",
           (T_POS + "test_time_weight_rejection_builds_only_what_c2_reads",)),
    Mutant("h-pin-ignored", POS,
           "h_start, h_max = H_SEARCH if h_pin is None else (h_pin, h_pin)",
           "h_start, h_max = H_SEARCH",
           (T_POS + "test_pinned_h_is_the_only_trial",)),
    Mutant("hyp-iii-checked-on-a1", SYMBOLS,
           'decay_check("hyp-iii-order2-decay", p.a2,',
           'decay_check("hyp-iii-order2-decay", p.a1,',
           (T_SYMBOLS + "test_check_assumptions_no_decay_fails[a2]",)),
    Mutant("theta-bound-closed-at-theta-sup-config", SYMBOLS,
           "if theta is not None and not low <= theta < sup:",
           "if theta is not None and not low <= theta <= sup:",
           (T_HARNESS + "test_config_theta_boundary_cites_range",)),
    Mutant("theta-bound-closed-at-theta-sup-row", SYMBOLS,
           "if theta is not None and not low <= theta < sup:",
           "if theta is not None and not low <= theta <= sup:",
           (T_SYMBOLS + "test_check_assumptions_theta_boundary",)),
    Mutant("theta-bound-closed-at-theta-sup-weight-params", SYMBOLS,
           "if theta is not None and not low <= theta < sup:",
           "if theta is not None and not low <= theta <= sup:",
           (T_WEIGHTS + "test_weight_params_refuse_theta_sup",)),
    Mutant("coefficients-read-at-every-time", SYMBOLS,
           "return ts if self.time_dependent else np.zeros(1)",
           "return ts",
           (T_SYMBOLS + "test_decay_checks_sample_each_coefficient_time_once"
            "[complex-damped]",
            T_POS + "test_each_recipe_runs_once_per_coefficient_time"
            "[damped-64]")),
    Mutant("hyp-ii-measured-at-t0-only", SYMBOLS,
           "t=t) for t in coefficient_times]))",
           "t=t) for t in coefficient_times[:1]]))",
           (T_SYMBOLS + "test_regularity_row_takes_the_largest_seminorm_over"
            "_the_sample_times[a2]",
            T_SYMBOLS + "test_regularity_row_fails_on_a_nan_past_t0")),
    Mutant("seminorm-skips-nan-samples", SYMBOLS,
           "            if np.isnan(top):\n                return top\n",
           "",
           (T_SYMBOLS + "test_nan_symbol_fails_its_regularity_row",)),
    Mutant("seminorm-slice-off-centre", SYMBOLS,
           "vals[:, :, cx - rx:cx + rx + 1, cxi - rxi:cxi + rxi + 1]",
           "vals[:, :, cx - rx - 1:cx + rx, cxi - rxi:cxi + rxi + 1]",
           (T_SYMBOLS + "test_seminorm_of_one_wide_evaluation_equals_one_per_pair",)),
    Mutant("stencil-cache-ignores-order", STENCIL,
           "key = (tuple(nodes.tolist()), float(x0), order)",
           "key = (tuple(nodes.tolist()), float(x0))",
           (T_KERNELS + "test_fd_weights_computes_each_stencil_once",
            T_KERNELS + "test_xi_derivative_equals_reference")),
    Mutant("x-derivatives-one-multiplier", QUANTIZE,
           "mult = (1j * g.xi) ** order",
           "mult = (1j * g.xi) ** 1",
           (T_KERNELS + "test_x_derivatives_match_reference_to_rounding",)),
    Mutant("integrating-factors-first-row-only", EVOLVE,
           "return np.exp(-1j * distinct)[inv].reshape(phase.shape)",
           "return np.exp(-1j * distinct)[[0] * len(inv)].reshape(phase.shape)",
           (T_KERNELS + "test_integrating_factors_equal_reference",)),
    Mutant("antiderivative-few-nodes", WEIGHTS,
           "_AD_NODES, _AD_WEIGHTS = np.polynomial.legendre.leggauss(40)",
           "_AD_NODES, _AD_WEIGHTS = np.polynomial.legendre.leggauss(6)",
           (T_WEIGHTS + "test_decay_antiderivative_matches_the_closed_form",)),
    Mutant("h-guard-lets-nan-through", WEIGHTS,
           "        if not (1.0 <= self.h < np.inf):",
           "        if self.h < 1.0:",
           (T_WEIGHTS + "test_weight_params_validation",)),
    Mutant("zero-strength-weight-evaluated", WEIGHTS,
           "    live = [k for k in which if _strength(params, k) != 0.0]",
           "    live = list(which)",
           (T_WEIGHTS + "test_zero_strength_weights_are_exact_zeros",)),
    Mutant("zero-strength-derivative-evaluated", WEIGHTS,
           "    if _strength(params, which) == 0.0:\n"
           "        return _zero_weight(win.x, win.xi)\n",
           "",
           (T_WEIGHTS + "test_zero_strength_weights_are_exact_zeros",)),
    Mutant("shared-psi1-for-psi2", WEIGHTS,
           "    psi2 = win.psi(2)\n",
           "    psi2 = win.psi(1)\n",
           (T_WEIGHTS + "test_lambda_x_derivative_order3_matches_fd_on_the_rolloff",
            T_CONJ + "test_phase_tables_evaluate_each_window_once")),
    Mutant("real-edge-stencils-take-dgemv", STENCIL,
           "    head, tail = (np.ascontiguousarray(edge, dtype=complex)\n"
           "                  for edge in (moved[:width], moved[n - width:]))\n",
           "    head, tail = moved[:width], moved[n - width:]\n",
           (T_KERNELS + "test_diff_uniform_of_real_values_is_the_complex_casts_real_part",
            T_KERNELS + "test_xi_derivative_of_real_table_is_the_complex_casts_real_part")),
    Mutant("q-phase-dropped-in-expansion", CONJ,
           "core = (core * Q[a - 1]) * (-1j) ** a",
           "core = core * Q[a - 1]",
           (T_CONJ + "test_tables_formed_on_first_read_equal_the_eager_build",)),
    Mutant("psi-window-complex", CONJ,
           "return SymbolTable(self.grid, win.psi(0).T)",
           "return SymbolTable(self.grid, win.psi(0).T.astype(complex))",
           (T_CONJ + "test_real_tables_stay_real",)),
    Mutant("cli-keeps-the-host-allocator", HARNESS,
           "def main(argv=None):\n    reuse_freed_memory()\n",
           "def main(argv=None):\n",
           (T_HARNESS + "test_allocator_policy_changes_no_output",)),
    Mutant("run-keeps-every-table", HARNESS,
           "    bundle.assembler.release_tables()\n",
           "",
           (T_HARNESS + "test_run_releases_the_tables_its_solve_does_not_read",)),
    Mutant("tables-stored-row-major", QUANTIZE,
           'order="F"))',
           'order="C"))',
           (T_CONJ + "test_stored_tables_are_column_major",
            T_QUANTIZE + "test_tables_are_column_major")),
    Mutant("stage-stack-column-major", QUANTIZE,
           "A = np.empty((len(tables), grid.N, grid.N), dtype=complex)",
           'A = np.empty((len(tables), grid.N, grid.N), dtype=complex, '
           'order="F")',
           (T_CONJ + "test_coefficient_stack_and_stages_are_row_major",)),
    Mutant("dense-lone-row-takes-gemv", CONJ,
           "    if np.ndim(w_hat) == 2 and len(w_hat) == 1:\n",
           "    if False:\n",
           (T_QUANTIZE + "test_dense_stack_rows_do_not_depend_on_the_grouping",)),
]


def pytest_in_copy(tests, path=None, text=None):
    """Exit code of pytest on ``tests`` in a temporary copy of the
    repository, with ``path`` rewritten to ``text`` when given, and the
    last line of its output."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        for name in COPIED:
            src, dst = ROOT / name, Path(work) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, dst)
        if path is not None:
            (Path(work) / path).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(work) / "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "--tb=no",
             "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, capture_output=True, text=True)
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return proc.returncode, " ".join(tail)


def run(mutant: Mutant) -> str:
    """'killed', 'SURVIVED' or an 'ERROR: ...' line for one mutant."""
    source = (ROOT / mutant.path).read_text()
    count = source.count(mutant.old)
    if count != 1:
        return f"ERROR: old text found {count} times in {mutant.path}"
    code, tail = pytest_in_copy(mutant.tests, mutant.path,
                                source.replace(mutant.old, mutant.new))
    # pytest: 0 all passed, 1 some failed, 2 errors during collection;
    # anything else (4: a test id not found, 5: nothing collected) means
    # the entry no longer names runnable tests
    if code == 0:
        return "SURVIVED"
    if code in (1, 2):
        return "killed"
    return f"ERROR: pytest exit {code}: {tail}"


def main():
    start = time.perf_counter()
    # a kill counts only if the same tests pass on the unmutated copy
    code, tail = pytest_in_copy(sorted({t for m in MUTANTS for t in m.tests}))
    print(f"unmutated: {tail} ({time.perf_counter() - start:.1f} s)")
    if code != 0:
        return 1
    bad = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        verdict = run(m)
        bad += verdict != "killed"
        print(f"{m.name}: {verdict} ({time.perf_counter() - t0:.1f} s)",
              flush=True)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
