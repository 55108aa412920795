"""Checks over the package source itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import afscreen


def loaded_names(paths) -> set[str]:
    """The names the source files load, by name or as an attribute."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


def test_every_private_definition_is_used_in_the_package():
    # A module-level _private function or class that no code in the
    # package loads, by name or as an attribute, serves only the tests
    # and should go.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(afscreen.__file__).parent.glob("*.py")}
    loaded = loaded_names(Path(afscreen.__file__).parent.glob("*.py"))
    private = [(name, node.name) for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")]
    assert len(private) > 0
    assert [p for p in private if p[1] not in loaded] == []


def test_every_public_definition_is_used_in_the_package_or_benchmark():
    # A public module-level function, class or constant that neither the
    # package nor the benchmark loads, by name or as an attribute, serves
    # only the tests and should go. process_patient is the library entry
    # point that README documents.
    package = Path(afscreen.__file__).parent
    benchmark = Path(__file__).resolve().parents[1] / "perfbench"
    loaded = loaded_names([*package.glob("*.py"), *benchmark.glob("*.py")])
    public = []
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            public += [(path.stem, n) for n in names if not n.startswith("_")]
    assert len(public) > 100
    assert sorted(p for p in public if p[1] not in loaded) == [
        ("pipeline", "process_patient")]


def test_no_forest_function_that_fits_a_tree_recurses():
    # Trees grow a level of every tree at a time, in a loop. The tree
    # walkers that check a loaded model and count its votes are the only
    # functions in forest.py, nested ones included, that call themselves,
    # so a fit that goes back to one call per node fails here.
    tree = ast.parse(Path(afscreen.__file__).with_name("forest.py")
                     .read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    recursive = sorted(
        func.name for func in functions
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == func.name for node in ast.walk(func)))
    assert {"_fit_trees", "_best_splits", "train",
            "cross_validate"} <= {func.name for func in functions}
    assert recursive == ["_add_votes", "_check_tree"]


def imported_modules(tree: ast.Module) -> set[str]:
    """The afscreen modules a module imports, by bare name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "afscreen":
                continue
            module = module.removeprefix("afscreen").lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("afscreen."))
    return names


def test_only_the_pipeline_imports_the_detectors():
    # The record layer, the features, the forest and the statistics need
    # no filter; only the pipeline runs the detectors.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(afscreen.__file__).parent.glob("*.py")}
    assert [name for name, tree in trees.items()
            if "qrs" in imported_modules(tree)] == ["pipeline"]
    assert [name for name, tree in trees.items()
            for node in ast.walk(tree)
            if (isinstance(node, ast.alias)
                and node.name == "TYPE_CHECKING")
            or (isinstance(node, ast.Attribute)
                and node.attr == "TYPE_CHECKING")] == []


def test_header_numbers_are_read_by_one_reader():
    # Every WFDB header number goes through record_io._token and every
    # EDF one through record_io._numeric_field, which turn each way a
    # number can fail to read into a ParseError; the parsers themselves
    # convert no number and catch no ValueError.
    tree = ast.parse(Path(afscreen.__file__).with_name("record_io.py")
                     .read_text(encoding="utf-8"))
    parsers = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name in ("parse_wfdb", "_parse_gain_token",
                                 "parse_edf")}
    assert len(parsers) == 3
    found = []
    for name, func in parsers.items():
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("int", "float")):
                found.append((name, node.func.id, node.lineno))
            elif (isinstance(node, ast.ExceptHandler) and node.type is not None
                  and "ValueError" in {n.id for n in ast.walk(node.type)
                                       if isinstance(n, ast.Name)}):
                found.append((name, "except ValueError", node.lineno))
    assert found == []


def fresh_python(code: str, cwd: Path | None = None) -> str:
    """The standard output of code run in a fresh interpreter that
    imports afscreen from this source tree, without AFSCREEN_ settings."""
    src = str(Path(afscreen.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AFSCREEN_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, cwd=cwd, capture_output=True, text=True,
                         check=True)
    return out.stdout


SCIPY_LOADED = ("sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy')")


def test_modules_that_filter_no_signal_load_no_scipy():
    modules = ["record_io", "quality", "features", "forest", "stats",
               "synth"]
    code = (f"import sys\n"
            f"for m in {modules!r}:\n"
            f"    __import__('afscreen.' + m)\n"
            f"print({SCIPY_LOADED})\n")
    assert fresh_python(code).strip() == "[]"


@pytest.mark.parametrize("module", ["qrs", "pipeline", "cli"])
def test_importing_the_detectors_loads_no_scipy(module):
    # scipy.signal takes about 0.5 s and 70 MB to load; qrs imports it on
    # its first filter, so an RR cohort never pays for it
    code = (f"import sys\n"
            f"import afscreen.{module}\n"
            f"print({SCIPY_LOADED})\n")
    assert fresh_python(code).strip() == "[]"


def test_rr_cohort_runs_load_no_scipy(tmp_path):
    code = f"""
        import sys
        from pathlib import Path
        from afscreen import synth
        from afscreen.cli import main
        from afscreen.record_io import write_rr_csv

        rows = ["path,format,patient_id"]
        for i in range(6):
            spec = synth.SynthSpec(rhythm_program=[(60.0, "NSR"),
                                                   (60.0, "AF")], seed=i)
            Path(f"p{{i}}.csv").write_text(
                write_rr_csv(*synth.gen_rr(spec)))
            rows.append(f"p{{i}}.csv,rr,p{{i}}")
        Path("m.csv").write_text("\\n".join(rows) + "\\n")
        small = ["--min-peaks", "100", "--workers", "2"]
        codes = [
            main(["train", "--manifest", "m.csv", "--out", "model.json",
                  "--grid", "5x2"]),
            main(["predict", "--manifest", "m.csv", "--model",
                  "model.json", "--out-dir", "out", *small]),
            main(["qc", "--manifest", "m.csv", "--out", "qc.csv",
                  "--dump-detector", "reference", *small]),
        ]
        print(codes, {SCIPY_LOADED})
        """
    out = fresh_python(code, cwd=tmp_path).splitlines()[-1]
    assert out == "[0, 0, 0] []"
    assert (tmp_path / "out" / "cohort.csv").is_file()


def test_evaluate_loads_no_scipy(tmp_path):
    # evaluate reads the manifest only for labels and AHI, so its edf and
    # wfdb rows need no filters; no entry file is opened
    (tmp_path / "m.csv").write_text(
        "path,format,patient_id,ahi,reference_label\n"
        "a.edf,edf,a,3,AF\nb.hea,wfdb,b,20,nonAF\nc.csv,rr,c,,AF\n")
    (tmp_path / "cohort.csv").write_text(
        "patient_id,afb,prominent_af\na,40.0,true\nb,5.0,false\nc,,\n")
    code = f"""
        import sys
        from afscreen.cli import main
        code = main(["evaluate", "--predictions", "cohort.csv",
                     "--manifest", "m.csv", "--out-dir", "out"])
        print(code, {SCIPY_LOADED})
        """
    out = fresh_python(code, cwd=tmp_path).splitlines()[-1]
    assert out == "0 []"
    assert (tmp_path / "out" / "strata_report.csv").is_file()


def test_no_command_loads_scipy_signal(tmp_path):
    # The detectors take scipy's compiled sosfilt loop alone: every
    # command, on a manifest with edf, wfdb and rr rows, and a direct
    # process_patient call leave scipy.signal unloaded
    code = f"""
        import sys
        from pathlib import Path
        import numpy as np
        from afscreen import pipeline, qrs, synth
        from afscreen.cli import main
        from afscreen.forest import load_model
        from afscreen.record_io import encode_212, write_edf, write_rr_csv

        rows = ["path,format,patient_id,reference_label,annotations"]
        for i, fmt in enumerate(["edf", "wfdb", "rr"] * 2):
            program = [(90.0, "NSR"), (90.0, "AF")][::1 - 2 * (i % 2)]
            spec = synth.SynthSpec(rhythm_program=program, seed=i,
                                   noise_snr_db=10.0)
            record, peaks, ann = synth.synth_record(spec, f"p{{i}}")
            Path(f"p{{i}}.csv").write_text(write_rr_csv(peaks, ann))
            path = f"p{{i}}.csv"
            if fmt == "edf":
                path = f"p{{i}}.edf"
                Path(path).write_bytes(write_edf(record))
            elif fmt == "wfdb":
                path = f"p{{i}}.hea"
                ecg = np.clip(np.round(record.samples * 200.0), -2048, 2047)
                Path(f"p{{i}}.dat").write_bytes(encode_212(ecg))
                Path(path).write_text(
                    f"p{{i}} 1 {{record.fs:g}} {{ecg.shape[0]}}\\n"
                    f"p{{i}}.dat 212 200 12 0 0 0 0 ECG\\n")
            label = "AF" if i % 2 else "nonAF"
            rows.append(f"{{path}},{{fmt}},p{{i}},{{label}},p{{i}}.csv")
        Path("m.csv").write_text("\\n".join(rows) + "\\n")
        small = ["--min-peaks", "100", "--workers", "1"]
        runs = [
            ["train", "--manifest", "m.csv", "--out", "model.json",
             "--grid", "5x2"],
            ["predict", "--manifest", "m.csv", "--model", "model.json",
             "--out-dir", "out", *small],
            ["qc", "--manifest", "m.csv", "--out", "qc.csv", *small],
            ["qc", "--manifest", "m.csv", "--out", "qc.csv",
             "--dump-detector", "test", *small],
            ["evaluate", "--predictions", "out/cohort.csv",
             "--manifest", "m.csv", "--out-dir", "eval"],
        ]
        for argv in runs:
            code = main(argv)
            print("::", argv[0], code, "scipy.signal" in sys.modules,
                  qrs._kernel is not None)
        result = pipeline.process_patient(
            record, load_model(Path("model.json").read_bytes()),
            pipeline.PipelineConfig(min_reference_peaks=100))
        print("::", result.qc.status, "scipy.signal" in sys.modules,
              qrs._kernel is not None)
        """
    out = [line[3:] for line in fresh_python(code, cwd=tmp_path).splitlines()
           if line.startswith(":: ")]
    assert out == ["train 0 False True", "predict 0 False True",
                   "qc 0 False True", "qc 0 False True",
                   "evaluate 0 False True", "accepted False True"]
    assert (tmp_path / "p0.peaks.csv").is_file()
    assert (tmp_path / "eval" / "strata_report.csv").is_file()


def test_two_detector_threads_load_the_kernel_together(tmp_path):
    # An entry run outside multiprocessing takes a second detector
    # thread: both threads wait at a barrier, then make their first
    # filter call at once. Both get the one kernel, and the result is
    # process_patient's.
    code = """
        import sys, threading
        from afscreen import pipeline, qrs, synth
        from afscreen.forest import ForestModel
        from afscreen.record_io import parse_edf, write_edf

        spec = synth.SynthSpec(rhythm_program=[(150.0, "NSR"),
                                               (150.0, "AF")], seed=3,
                               noise_snr_db=10.0)
        record, _, _ = synth.synth_record(spec, patient_id="p")
        with open("p.edf", "wb") as f:
            f.write(write_edf(record))
        entry = pipeline.ManifestEntry(path="p.edf", fmt="edf",
                                       patient_id="p")
        model = ForestModel(trees=[{"f": 6, "thr": 700.0,
                                    "l": {"leaf": [0, 1]},
                                    "r": {"leaf": [1, 0]}}],
                            n_estimators=1, max_depth=1, seed=0)
        config = pipeline.PipelineConfig(min_reference_peaks=100)

        load, barrier, before, got = (qrs._sosfilt_kernel,
                                      threading.Barrier(2), {}, {})
        def sosfilt_kernel():
            me = threading.get_ident()
            if me not in before:
                before[me] = qrs._kernel
                barrier.wait(timeout=60)
            return got.setdefault(me, load())
        qrs._sosfilt_kernel = sosfilt_kernel

        result = pipeline.result_to_dict(
            pipeline.process_entry(entry, model, config))
        kernels = {id(k) for k in got.values()}
        print(len(before), set(before.values()), len(got),
              kernels == {id(qrs._kernel)})
        again = parse_edf(open("p.edf", "rb").read())
        again.patient_id = "p"
        want = pipeline.result_to_dict(
            pipeline.process_patient(again, model, config))
        print(result == want, result["qc"]["status"],
              "scipy.signal" in sys.modules)
        """
    out = fresh_python(code, cwd=tmp_path).splitlines()
    assert out == ["2 {None} 2 True", "True accepted False"]


def test_the_kernel_falls_back_to_importing_scipy_signal():
    # where scipy's _sosfilt extension file is not found, the kernel
    # comes from scipy.signal, with the same band-passes and peaks
    code = """
        import hashlib, sys
        from afscreen import qrs, synth

        spec = synth.SynthSpec(rhythm_program=[(60.0, "NSR"),
                                               (60.0, "AF")], seed=4,
                               noise_snr_db=5.0)
        record, _, _ = synth.synth_record(spec)
        if FALLBACK:
            qrs._kernel_spec = lambda: None
        digest = hashlib.sha256()
        for lo, hi in ((5.0, 15.0), (0.5, 40.0)):
            bp, peak = qrs._bandpass(record.samples, record.fs, lo, hi)
            digest.update(bp.tobytes() + repr(peak).encode())
        for detect in (qrs.detect_reference, qrs.detect_test):
            digest.update(detect(record).times.tobytes())
        module = sys.modules["scipy.signal._sosfilt"]
        print("scipy.signal" in sys.modules, qrs._kernel is module._sosfilt,
              digest.hexdigest())
        """
    by_file = fresh_python(code.replace("FALLBACK", "False")).split()
    fallback = fresh_python(code.replace("FALLBACK", "True")).split()
    assert by_file[:2] == ["False", "True"]
    assert fallback[:2] == ["True", "True"]
    assert fallback[2] == by_file[2]
