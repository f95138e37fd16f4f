"""Make the benchmark's modules and the program importable by its tests.

Spark's Python workers inherit PYTHONPATH from the JVM, which the session
fixture in the repository's root conftest launches after this runs.
"""
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
