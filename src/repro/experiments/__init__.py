"""Paper experiment reproductions.

One module per table/figure family of the evaluation section (section
5), plus the section 3.4 overhead accounting and the Lemma 1/2
validation:

============================== ================================================
``repro.experiments.figures``  Figs. 1-4, one table entry each:
                               ``fig1`` TSF, 100 & 300 nodes;
                               ``fig2`` SSTSP, 500 nodes, m = 4;
                               ``fig3`` TSF under the channel attacker (100 nodes);
                               ``fig4`` SSTSP under the insider attacker (500 nodes)
``repro.experiments.table1``   m sweep: synchronization latency & error
``repro.experiments.overhead`` beacon/storage overhead (section 3.4)
``repro.experiments.lemmas``   measured vs analytic convergence bounds
============================== ================================================

Each module exposes ``run(...)`` returning structured results and a
``main`` printing the same rows/series the paper reports (plus CSV
output); ``figures.run``/``figures.main`` take the figure's name first.
``python -m repro <name>`` (``fig1`` ... ``fig4``, ``table1``, ...) or
the installed ``sstsp-experiment`` command runs them; ``--quick`` shrinks
the scenario for smoke runs.
"""
