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


def test_reading_a_manifest_with_a_signal_row_loads_scipy_signal(tmp_path):
    # the parent process loads it before the pool forks; no entry file
    # is opened to read the manifest
    (tmp_path / "m.csv").write_text("path,format,patient_id\n"
                                    "a.csv,rr,a\nb.edf,edf,b\n")
    (tmp_path / "rr.csv").write_text("path,format,patient_id\n"
                                     "a.csv,rr,a\n")
    code = f"""
        import sys
        from afscreen import pipeline
        pipeline.read_manifest("rr.csv")
        print({SCIPY_LOADED})
        pipeline.read_manifest("m.csv")
        print("scipy.signal" in sys.modules)
        """
    assert fresh_python(code, cwd=tmp_path).split("\n")[:2] == ["[]",
                                                                "True"]


def test_two_detector_threads_load_scipy_together(tmp_path):
    # An entry that bypasses read_manifest leaves the import to the
    # detectors: both threads of _load wait at a barrier, then load
    # scipy.signal at once. The result is process_patient's.
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

        load, barrier, first = qrs.signal_filters, threading.Barrier(2), {}
        def signal_filters():
            me = threading.get_ident()
            if me not in first:
                first[me] = "scipy.signal" in sys.modules
                barrier.wait(timeout=60)
            return load()
        qrs.signal_filters = signal_filters

        print("scipy" in sys.modules)
        got = pipeline.result_to_dict(
            pipeline.process_entry(entry, model, config))
        print(len(first), any(first.values()))
        again = parse_edf(open("p.edf", "rb").read())
        again.patient_id = "p"
        want = pipeline.result_to_dict(
            pipeline.process_patient(again, model, config))
        print(got == want, got["qc"]["status"])
        """
    out = fresh_python(code, cwd=tmp_path).splitlines()
    assert out == ["False", "2 False", "True accepted"]
