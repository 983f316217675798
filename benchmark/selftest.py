"""Show that each correctness check of the benchmark can fail.

    python3 benchmark/selftest.py

Trains two small micro models (matrix and recurrent form) the way the
benchmark's rounds do, then runs each check on the real outputs, where it
must pass, and on a perturbed parameter, a mutated mask or a wrong result,
where it must fail. Prints one line per case and exits 0 only when every
case comes out as expected.
"""

import math
import sys

import numpy as np

import checks
import reference
import run


def main() -> int:
    vm = run.import_vminet()
    out_dir = run.RUNS / "selftest"
    models = {}
    for form, recurrent in (("matrix", False), ("recurrent", True)):
        r = run.Run(vm, run.Workload("train", recurrent, 16, 16, 10, 64, 1), 0, out_dir / form)
        r.round()
        models[form] = r
    cases = []

    def case(name, result, expected):
        ok, detail = result
        cases.append(ok == expected)
        verdict = "ok" if ok == expected else "WRONG"
        print(f"{verdict:5s} {name}: {'passes' if ok else 'fails'} ({detail})")

    for form, r in models.items():
        x = checks.to_inputs(r.heldout.images)
        with vm.tensor.no_grad():
            program = r.model.forward(vm.tensor.Tensor(x)).data
        ref = reference.ReferenceModel.from_checkpoint(r.checkpoint)
        case(f"{form} logits, real", checks.logits_match(program, ref.forward(x, form)), True)
        other = "recurrent" if form == "matrix" else "matrix"
        case(f"{form} logits, reference in the {other} form",
             checks.logits_match(program, ref.forward(x, other)), False)
        perturbed = reference.ReferenceModel.from_checkpoint(r.checkpoint)
        perturbed.p["stage2.block3.w_k"][1, 2] *= 1.0 + 1e-3
        case(f"{form} logits, one w_k entry scaled by 1+1e-3",
             checks.logits_match(program, perturbed.forward(x, form)), False)
        mutated = reference.ReferenceModel.from_checkpoint(r.checkpoint)
        m = mutated.masks["stage1.block2"]
        m[-1, 0] = 1.0 - m[-1, 0]
        case(f"{form} logits, one mask entry flipped",
             checks.logits_match(program, mutated.forward(x, form)), False)

        case(f"{form} parameters non-zero, real",
             checks.parameters_nonzero(reference.read_vmin(r.checkpoint)), True)
        records = reference.read_vmin(r.checkpoint)
        records["param.head.b"][3] = 0.0
        case(f"{form} parameters non-zero, one head bias zeroed",
             checks.parameters_nonzero(records), False)

        xg, yg = x[:run.GRAD_SAMPLES], r.heldout.labels[:run.GRAD_SAMPLES]
        direction = checks.unit_direction(r.model, np.random.default_rng(0))
        analytic = checks.analytic_derivative(vm, r.model, xg, yg, direction)
        case(f"{form} directional derivative, real", checks.derivatives_agree(
            analytic, checks.numeric_derivative(vm, r.model, xg, yg, direction)), True)
        w = dict(r.model.parameters())["head.w"]
        saved = w.data
        w.data = saved * (1.0 + 1e-2)
        numeric = checks.numeric_derivative(vm, r.model, xg, yg, direction)
        w.data = saved
        case(f"{form} directional derivative, head.w scaled by 1+1e-2 after backward",
             checks.derivatives_agree(analytic, numeric), False)

        with vm.tensor.no_grad():
            fresh = checks.loss_of(vm, r.fresh, x, r.heldout.labels).item()
            case(f"{form} fresh loss, real", checks.loss_near_ln_k(fresh, run.CLASSES), True)
            r.fresh.head_b.data = r.fresh.head_b.data + np.eye(run.CLASSES)[0]
            shifted = checks.loss_of(vm, r.fresh, x, r.heldout.labels).item()
            case(f"{form} fresh loss, head bias of class 0 raised by 1",
                 checks.loss_near_ln_k(shifted, run.CLASSES), False)

        losses = r.histories[-1]
        case(f"{form} loss decreased, real", checks.loss_decreased(losses), True)
        case(f"{form} loss decreased, epochs reversed", checks.loss_decreased(losses[::-1]), False)

        accuracy = vm.training.evaluate(r.model, r.heldout, run.EVAL_BATCH)
        labels = r.heldout.labels
        case(f"{form} accuracy, real",
             checks.accuracy_matches(accuracy, ref.forward(x, form), labels), True)
        # a bias that makes the reference predict one class, whose share of
        # the labels differs from the real accuracy
        c = next(c for c in range(run.CLASSES) if not math.isclose((labels == c).mean(), accuracy))
        biased = reference.ReferenceModel.from_checkpoint(r.checkpoint)
        biased.p["head.b"][c] += 1e3
        case(f"{form} accuracy, head bias of class {c} raised by 1e3",
             checks.accuracy_matches(accuracy, biased.forward(x, form), labels), False)

    print(f"{sum(cases)}/{len(cases)} cases as expected")
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
